// Package server implements rmsynd, the fault-contained HTTP/JSON front
// end on core.Synthesize. The request path is a fixed gauntlet —
// admission (bounded queue, explicit shedding) → budget derivation
// (headers clamped by policy) → content-addressed cache (single-flight)
// → bounded worker pool → synthesis under the degradation ladder →
// server-side re-verification — and every fault along it maps to a
// structured rmsynd/v1 error, never a crashed process or a silent lie.
// See DESIGN.md §11 for the architecture and failure taxonomy.
package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sigcache"
	"repro/internal/sop"
	"repro/internal/verify"
)

// Hooks are the server-level fault-injection points, mirroring
// core.ProbeHooks: nil-safe, test-only, compiled in because chaos
// coverage of the real request path is a feature of the build, not of a
// special test binary. All hooks run inside the request's panic
// containment.
type Hooks struct {
	// JobStart runs when a request wins its worker-pool slots, before
	// synthesis. A plan can block here (queue pressure), panic here
	// (worker-pool trip), or record scheduling.
	JobStart func(circuit string)
	// MutateResult runs on the synthesized network before verification
	// and caching — the cache-poisoning attempt. The server-side
	// re-verification must catch whatever it does.
	MutateResult func(n *network.Network)
	// CoreHooks supplies per-request core-level probes, letting a plan
	// drive the library's fault points through the HTTP path.
	CoreHooks func() *core.ProbeHooks
}

// Config sizes the server. Zero values mean the documented defaults.
type Config struct {
	// Workers is the global derivation pool shared by every request
	// (default GOMAXPROCS). A request's granted worker count is taken
	// from this pool for the duration of its synthesis.
	Workers int
	// QueueDepth bounds how many admitted requests may wait for workers
	// beyond the ones running (default 2×Workers). Admission beyond
	// Workers+QueueDepth is shed with 429.
	QueueDepth int
	// MaxBodyBytes caps the request body (default 4 MiB).
	MaxBodyBytes int64
	// ReadTimeout bounds reading the request body once the handler has
	// it (default 10s) — the slow-loris fence.
	ReadTimeout time.Duration
	// Policy clamps per-request grants.
	Policy Policy
	// CacheEntries / CacheBytes bound the result cache (defaults per
	// sigcache.New).
	CacheEntries int
	CacheBytes   int64
	// Adaptive has no effect: admission always runs the AIMD limiter
	// (DESIGN.md §14), whose effective in-system cap moves between 1 and
	// Workers+QueueDepth on congestion signals. The field stays only
	// because the repository benchmark sets it.
	//
	// Deprecated: the AIMD limiter is the only admission path.
	Adaptive bool
	// CacheDir, when set, attaches the crash-safe persistent cache tier
	// rooted there. The warm scan runs asynchronously; /readyz reports
	// not-ready until it finishes. DiskCacheBytes bounds the tier
	// (default sigcache.DefaultDiskBytes).
	CacheDir       string
	DiskCacheBytes int64
	// Hooks injects faults; nil in production.
	Hooks *Hooks
}

// Server is one rmsynd instance. Create with New, serve via ServeHTTP
// (it is an http.Handler), stop with Shutdown.
type Server struct {
	cfg     Config
	pool    *sem
	lim     *limiter
	cache   *sigcache.Cache
	metrics *metrics
	mux     *http.ServeMux

	// baseCtx parents every synthesis run: flights are detached from
	// client connections (a disconnect must not kill work that
	// coalesced requests or the cache will still want) but not from the
	// server's own lifetime.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	// cacheWarm flips once the persistent tier's recovery scan has
	// landed (immediately when no CacheDir is configured); /readyz
	// reports warming until then. stopped flips after Shutdown
	// completes — the point where /healthz stops reporting live.
	cacheWarm atomic.Bool
	stopped   atomic.Bool

	mu       sync.Mutex
	draining bool
	jobs     sync.WaitGroup
}

// New builds a server from cfg.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	} else if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 2 * cfg.Workers
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 4 << 20
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 10 * time.Second
	}
	if cfg.Policy == (Policy{}) {
		cfg.Policy = DefaultPolicy()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		pool:       newSem(cfg.Workers),
		lim:        newLimiter(cfg.Workers + cfg.QueueDepth),
		cache:      sigcache.New(cfg.CacheEntries, cfg.CacheBytes),
		metrics:    newMetrics(),
		mux:        http.NewServeMux(),
		baseCtx:    ctx,
		cancelBase: cancel,
	}
	if cfg.CacheDir != "" {
		// The recovery scan runs off the startup path: the server serves
		// (memory-only) immediately and /readyz reports warming until the
		// scan lands. A failed open degrades to memory-only — a cache
		// tier must never take the service down.
		go func() {
			d, derr := sigcache.OpenDisk(cfg.CacheDir, cfg.DiskCacheBytes)
			if derr == nil {
				s.cache.SetDisk(d)
			} else {
				s.metrics.diskOpenFailed.Store(true)
			}
			s.cacheWarm.Store(true)
		}()
	} else {
		s.cacheWarm.Store(true)
	}
	s.mux.HandleFunc("POST /v1/synthesize", s.handleSynthesize)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// handleHealthz is liveness only: the process is up and responding. It
// stays ok through a drain — flipping liveness while in-flight requests
// are still finishing invites the supervisor to kill a process that is
// doing exactly what it was asked. Routability lives in /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.stopped.Load() {
		http.Error(w, "stopped", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

// handleReadyz is routability: whether a load balancer should send the
// next request here. Not ready while draining (readiness flips before
// liveness on SIGTERM, in that order), while the persistent cache
// recovery scan is still running, or while admission is saturated.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.isDraining() || s.stopped.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case !s.cacheWarm.Load():
		http.Error(w, "warming: persistent cache scan in progress", http.StatusServiceUnavailable)
	case s.lim.InSystem() >= s.lim.Effective():
		http.Error(w, "saturated: admission at capacity", http.StatusServiceUnavailable)
	default:
		w.Write([]byte("ready\n"))
	}
}

// BeginDrain stops admitting new synthesis requests: admission returns
// 503 draining, /healthz flips unhealthy (so load balancers stop
// routing), in-flight requests keep running.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.metrics.draining.Store(true)
}

// ForceCancel cancels the base context: every in-flight synthesis
// budget trips and the flows drain through the degradation ladder,
// producing truthful degraded responses rather than hung connections.
func (s *Server) ForceCancel() { s.cancelBase() }

// Shutdown drains gracefully: stop admitting, wait for in-flight work,
// and if ctx expires first, force-cancel so the remaining flights
// degrade and finish. It returns once every request handler is done
// and liveness has flipped.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	defer s.stopped.Store(true)
	done := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.ForceCancel()
		<-done
		return ctx.Err()
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// tryEnter registers a request with the drain barrier. The flag and the
// WaitGroup share a mutex so no Add can race a Wait that already saw
// the drained state.
func (s *Server) tryEnter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.jobs.Add(1)
	return true
}

// handleSynthesize is the request gauntlet. Order matters: drain check
// and admission run before the body is read, so an overloaded or
// draining server sheds load without paying for parsing.
func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	if !s.tryEnter() {
		s.metrics.outcome(codeDraining)
		writeError(w, failCode(codeDraining, "server is draining; retry against another instance"), jitterMS(5000))
		return
	}
	defer s.jobs.Done()

	// Admission: one in-system slot per request (queued or running),
	// gated by the limiter's AIMD-moved cap. A refusal is the overload
	// signal: shed loudly, feed the control loop, and jitter the
	// retry horizon so the shed wave does not return in lockstep.
	if !s.lim.tryAcquire() {
		s.lim.onShed()
		s.metrics.shed.Add(1)
		s.metrics.outcome(codeQueueFull)
		writeError(w, failCode(codeQueueFull, "admission queue full (%d in system)", s.lim.Effective()),
			retryAfterMS(int64(s.lim.InSystem())))
		return
	}
	defer s.lim.release()

	code := s.synthesize(w, r)
	s.metrics.outcome(code)
}

// synthesize runs one admitted request end to end and returns the
// outcome code ("" for success) for metrics.
func (s *Server) synthesize(w http.ResponseWriter, r *http.Request) string {
	// Slow-loris fence: the body must arrive within ReadTimeout.
	rc := http.NewResponseController(w)
	rc.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout)) // best-effort; nil-checked below via read errors
	body, rerr := readAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if rerr != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(rerr, &tooBig):
			writeError(w, failCode(codeSpecTooLarge, "request body exceeds %d bytes", s.cfg.MaxBodyBytes), 0)
			return codeSpecTooLarge
		case isTimeout(rerr):
			writeError(w, failCode(codeReadTimeout, "request body not received within %s", s.cfg.ReadTimeout), 0)
			return codeReadTimeout
		default:
			writeError(w, failCode(codeBadSpec, "reading request body: %v", rerr), 0)
			return codeBadSpec
		}
	}
	rc.SetReadDeadline(time.Time{})

	spec, circuit, perr := parseSpec(body, r)
	if perr != nil {
		writeError(w, perr, 0)
		return perr.code
	}

	g, gerr := parseGrant(r.Header, s.cfg.Policy, s.cfg.Workers)
	if gerr != nil {
		writeError(w, failCode(codeBadOption, "%v", gerr), 0)
		return codeBadOption
	}

	// Content address: functionally identical submissions — reordered
	// cover rows, renamed internal signals, regenerated files — land on
	// the same entry. A cache bypass still coalesces with identical
	// in-flight work (flightKey), it just skips the stored entry. The
	// signature's BDD build runs under sigcache's default node cap.
	sig := sigcache.Signature(spec, 0)
	storeKey := sig + "|" + g.flowKey()
	if g.NoCache {
		storeKey = ""
	}
	flightKey := sig + "|" + g.flightKey()

	start := time.Now()
	var degradations int
	entry, src, ferr := s.cache.GetOrDo(r.Context(), storeKey, flightKey,
		func() (e *sigcache.Entry, cacheable bool, err error) {
			e, degradations, err = s.runFlight(circuit, spec, g)
			return e, err == nil && degradations == 0, err
		})

	// Feed the admission control loop: a queue timeout or a request
	// that burned its whole granted clock is a congestion signal; only
	// real synthesis latencies (clean cache misses) shape the baseline.
	elapsed := time.Since(start)
	deadlineMiss := elapsed >= g.Timeout
	var qt *reqError
	if errors.As(ferr, &qt) && qt.code == codeQueueTimeout {
		deadlineMiss = true
	}
	s.lim.observe(elapsed, deadlineMiss, src == sigcache.Miss && ferr == nil)

	// The client may have left while its flight (or the one it
	// coalesced onto) was still running; the work itself continues
	// under baseCtx and can still populate the cache.
	if r.Context().Err() != nil && ferr != nil {
		s.metrics.abandon.Add(1)
		return "abandoned"
	}
	if ferr != nil {
		var re *reqError
		if !errors.As(ferr, &re) {
			re = failCode(codeInternal, "%v", ferr)
		}
		var retry int64
		if re.code == codeQueueTimeout {
			retry = jitterMS(1000)
		}
		writeError(w, re, retry)
		return re.code
	}

	s.metrics.cache(src)
	if degradations > 0 {
		s.metrics.degraded.Add(1)
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Rmsynd-Cache", src.String())
	h.Set("X-Rmsynd-Elapsed-Ms", strconv.FormatInt(time.Since(start).Milliseconds(), 10))
	h.Set("X-Rmsynd-Granted-Timeout-Ms", strconv.FormatInt(g.Timeout.Milliseconds(), 10))
	h.Set("X-Rmsynd-Granted-Workers", strconv.Itoa(g.Workers))
	h.Set("X-Rmsynd-Granted-Max-Bdd-Nodes", strconv.Itoa(g.BDDNodes))
	h.Set("X-Rmsynd-Granted-Max-Cubes", strconv.FormatInt(g.Cubes, 10))
	h.Set("X-Rmsynd-Granted-Basis", g.Basis.String())
	w.WriteHeader(http.StatusOK)
	w.Write(entry.Body)
	return ""
}

// runFlight is the flight leader's job: worker acquisition, hooks,
// synthesis, poisoning-proof verification, serialization. Panics
// anywhere inside — hooks, core phases outside their own recover, the
// serializer — are contained here and become a structured 500.
func (s *Server) runFlight(circuit string, spec *network.Network, g grant) (entry *sigcache.Entry, degradations int, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.metrics.panics.Add(1)
			entry, err = nil, failCode(codeInternal, "request panicked: %v", p)
		}
	}()

	// The whole flight — queueing for workers included — lives inside
	// the granted wall clock, parented on the server, not the client.
	ctx, cancel := context.WithTimeout(s.baseCtx, g.Timeout)
	defer cancel()

	if aerr := s.pool.Acquire(ctx, g.Workers); aerr != nil {
		return nil, 0, failCode(codeQueueTimeout, "no workers within the %s budget: %v", g.Timeout, aerr)
	}
	defer s.pool.Release(g.Workers)
	// Inflight counts synthesizing requests only; admitted-but-queued
	// ones show up in the queue-depth gauge instead.
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)

	if s.cfg.Hooks != nil && s.cfg.Hooks.JobStart != nil {
		s.cfg.Hooks.JobStart(circuit)
	}

	opt := g.coreOptions()
	opt.Obs = obs.NewCollector()
	if s.cfg.Hooks != nil && s.cfg.Hooks.CoreHooks != nil {
		opt.Hooks = s.cfg.Hooks.CoreHooks()
	}

	res, serr := core.Synthesize(ctx, spec, opt)
	if serr != nil {
		if errors.Is(serr, core.ErrNotEquivalent) {
			return nil, 0, failCode(codeNotEquivalent, "%v", serr)
		}
		return nil, 0, failCode(codeSynthFailed, "%v", serr)
	}
	s.metrics.absorb(opt.Obs.Snapshot())

	if s.cfg.Hooks != nil && s.cfg.Hooks.MutateResult != nil {
		s.cfg.Hooks.MutateResult(res.Network)
	}

	// Trust nothing that is about to be cached: re-verify the result by
	// simulation against the parsed spec. This is what turns a cache
	// poisoning attempt into a truthful 500 instead of a durable lie.
	verified, verr := verify.Simulate(spec, res.Network, simVectors)
	if verr != nil || !verified {
		detail := "result network is not equivalent to the specification"
		if verr != nil {
			detail = verr.Error()
		}
		return nil, 0, failCode(codeNotEquivalent, "server-side verification failed: %s", detail)
	}

	bodyBytes, berr := buildBody(circuit, spec, res, g, true)
	if berr != nil {
		return nil, 0, failCode(codeInternal, "serializing response: %v", berr)
	}
	return &sigcache.Entry{Body: bodyBytes}, len(res.Degradations), nil
}

// simVectors is the random-vector count of the server's re-verification
// past verify.Simulate's exhaustive range: bounded cost, independent of
// the BDD machinery a poisoned run might have corrupted.
const simVectors = 2048

// parseSpec decodes the request body as PLA or BLIF, picking the format
// from ?format=, Content-Type, or the first directive in the body.
func parseSpec(body []byte, r *http.Request) (*network.Network, string, *reqError) {
	format := r.URL.Query().Get("format")
	if format == "" {
		switch ct := r.Header.Get("Content-Type"); {
		case strings.Contains(ct, "pla"):
			format = "pla"
		case strings.Contains(ct, "blif"):
			format = "blif"
		}
	}
	if format == "" {
		format = sniffFormat(body)
	}
	switch format {
	case "blif":
		net, err := network.ReadBLIF(bytes.NewReader(body))
		if err != nil {
			return nil, "", failCode(codeBadSpec, "parsing BLIF: %v", err)
		}
		return net, net.Name, nil
	case "pla":
		p, err := sop.ParsePLA(bytes.NewReader(body))
		if err != nil {
			return nil, "", failCode(codeBadSpec, "parsing PLA: %v", err)
		}
		net := network.FromPLA(p)
		return net, net.Name, nil
	}
	return nil, "", failCode(codeBadFormat,
		"cannot tell PLA from BLIF; send ?format=pla|blif, a pla/blif Content-Type, or a body starting with a format directive")
}

// sniffFormat looks at the first directive line: .model/.inputs/
// .outputs/.names open a BLIF, .i/.o/.p/.ilb/.ob/.type open a PLA.
func sniffFormat(body []byte) string {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 64<<10)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		field := line
		if i := strings.IndexAny(line, " \t"); i >= 0 {
			field = line[:i]
		}
		switch field {
		case ".model", ".inputs", ".outputs", ".names", ".exdc":
			return "blif"
		case ".i", ".o", ".p", ".ilb", ".ob", ".type", ".mv":
			return "pla"
		}
		return ""
	}
	return ""
}

// readAll reads r to EOF. Split out so the error classification in
// synthesize stays readable.
func readAll(r interface{ Read([]byte) (int, error) }) ([]byte, error) {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// isTimeout reports whether err looks like a read-deadline expiry.
func isTimeout(err error) bool {
	var to interface{ Timeout() bool }
	if errors.As(err, &to) && to.Timeout() {
		return true
	}
	return errors.Is(err, context.DeadlineExceeded) ||
		strings.Contains(err.Error(), "timeout") ||
		strings.Contains(err.Error(), "deadline")
}

// Cache exposes the result cache for introspection (tests, metrics).
func (s *Server) Cache() *sigcache.Cache { return s.cache }

// Metrics returns a point-in-time Prometheus rendering, for tests and
// the drain-time flush.
func (s *Server) Metrics() string {
	var b bytes.Buffer
	s.metrics.write(&b, s.snapshot())
	return b.String()
}

// snapshot gathers the scrape-time samples that live outside the
// metrics struct: cache tiers and admission limiter.
func (s *Server) snapshot() statsSnapshot {
	snap := statsSnapshot{
		cacheLen:     s.cache.Len(),
		cacheBytes:   s.cache.Bytes(),
		memEvictions: s.cache.Evictions(),
		limEffective: s.lim.Effective(),
		limInSystem:  s.lim.InSystem(),
		limMax:       s.lim.max,
		limShrinks:   s.lim.Shrinks(),
	}
	if d := s.cache.Disk(); d != nil {
		st := d.Stats()
		snap.disk = &st
	}
	return snap
}

// QueueCapacity reports Workers+QueueDepth — the static admission
// bound, which the overload tests size their bursts against.
func (s *Server) QueueCapacity() int { return s.lim.max }

// EffectiveLimit reports the limiter's current AIMD-moved cap, between
// 1 and QueueCapacity.
func (s *Server) EffectiveLimit() int { return s.lim.Effective() }

var _ fmt.Stringer = sigcache.Source(0) // metrics.cache relies on this
