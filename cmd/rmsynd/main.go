// Command rmsynd serves the paper's synthesis flow over HTTP/JSON — a
// fault-contained front end on core.Synthesize with admission control,
// per-request budgets clamped by server policy, a content-addressed
// result cache, and graceful drain on SIGTERM.
//
// Usage:
//
//	rmsynd                              # listen on :8177
//	rmsynd -addr 127.0.0.1:9000 -workers 8 -queue 16
//	rmsynd -max-timeout 1m -cache-entries 4096
//
// Endpoints:
//
//	POST /v1/synthesize   PLA or BLIF body -> rmsynd/v1 JSON
//	GET  /metrics         Prometheus text exposition
//	GET  /healthz         liveness: 200 until the process has shut down
//	GET  /readyz          routability: 503 while draining, while the
//	                      persistent cache scan runs, or at capacity
//
// Per-request knobs travel in X-Rmsynd-* headers (see DESIGN.md §11):
// Timeout, Max-Bdd-Nodes, Max-Ofdd-Nodes, Max-Cubes, Max-Steps,
// Workers, Method, Polarity, Basis, No-Cache.
// SIGTERM/SIGINT stops admission, finishes or degrades in-flight work
// within -grace, and flushes final metrics to stderr.
//
// Memory is bounded by the policy's per-request node and cube ceilings
// times the worker pool; set GOMEMLIMIT to give the garbage collector
// a target below the machine's limit.
//
// Exit codes: 0 clean drain, 1 usage error, 2 serve failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/server"
)

const (
	exitUsage = 1
	exitServe = 2
)

func main() {
	var (
		addr         = flag.String("addr", ":8177", "listen address")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "global derivation worker pool shared across requests")
		queue        = flag.Int("queue", 0, "admission queue depth beyond the pool (0 = 2x workers)")
		maxBody      = flag.Int64("max-body", 4<<20, "request body size cap in bytes")
		readTimeout  = flag.Duration("read-timeout", 10*time.Second, "request body read deadline (slow-loris fence)")
		defTimeout   = flag.Duration("default-timeout", 30*time.Second, "synthesis wall clock granted when the client asks for none")
		maxTimeout   = flag.Duration("max-timeout", 2*time.Minute, "per-request wall-clock ceiling")
		cacheEntries = flag.Int("cache-entries", 1024, "result cache entry bound")
		cacheBytes   = flag.Int64("cache-bytes", 64<<20, "result cache byte bound")
		cacheDir     = flag.String("cache-dir", "", "directory for the crash-safe persistent cache tier (empty = memory only)")
		diskBytes    = flag.Int64("disk-cache-bytes", 0, "persistent cache byte bound (0 = 256 MiB default)")
		grace        = flag.Duration("grace", 15*time.Second, "drain grace before in-flight work is force-degraded")
		chaosPlan    = flag.String("chaos-plan", "", "inject the named core chaos plan into every request (soak testing only)")
	)
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		os.Exit(exitUsage)
	}

	pol := server.DefaultPolicy()
	pol.DefaultTimeout = *defTimeout
	pol.MaxTimeout = *maxTimeout

	var hooks *server.Hooks
	if *chaosPlan != "" {
		plan, ok := findChaosPlan(*chaosPlan)
		if !ok {
			fmt.Fprintf(os.Stderr, "rmsynd: unknown chaos plan %q\n", *chaosPlan)
			os.Exit(exitUsage)
		}
		fmt.Fprintf(os.Stderr, "rmsynd: CHAOS plan %q injected into every request\n", plan.Name)
		hooks = &server.Hooks{CoreHooks: func() *core.ProbeHooks { return plan.Hooks(nil) }}
	}

	srv := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		MaxBodyBytes:   *maxBody,
		ReadTimeout:    *readTimeout,
		Policy:         pol,
		CacheEntries:   *cacheEntries,
		CacheBytes:     *cacheBytes,
		CacheDir:       *cacheDir,
		DiskCacheBytes: *diskBytes,
		Hooks:          hooks,
	})

	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Listen explicitly so ":0" works and the bound address is printed —
	// the soak harness starts the server on an ephemeral port and reads
	// it from this line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmsynd:", err)
		os.Exit(exitServe)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "rmsynd: listening on %s (%d workers, queue %d)\n",
		ln.Addr(), *workers, srv.QueueCapacity()-*workers)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "rmsynd:", err)
		os.Exit(exitServe)
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "rmsynd: %v: draining (grace %s)\n", sig, *grace)
	}

	// Drain: stop admitting, let in-flight work finish, force the
	// degradation ladder if the grace expires, then close connections.
	drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "rmsynd: drain:", err)
	}
	httpCtx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	if err := httpSrv.Shutdown(httpCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "rmsynd: http shutdown:", err)
	}

	// Final stats flush: the last scrape nobody got to make.
	fmt.Fprintln(os.Stderr, "rmsynd: final metrics:")
	fmt.Fprint(os.Stderr, srv.Metrics())
	fmt.Fprintln(os.Stderr, "rmsynd: drained cleanly")
}

// findChaosPlan resolves a -chaos-plan name against the deterministic
// chaos plan set (sized generously; targeted plans scope themselves).
func findChaosPlan(name string) (chaos.Plan, bool) {
	for _, p := range chaos.Plans(8) {
		if p.Name == name {
			return p, true
		}
	}
	return chaos.Plan{}, false
}
