// Command rmsynctl is the rmsynd client CLI: submit a spec with
// deadline propagation and capped-and-jittered retries that honor the
// server's Retry-After.
//
// Usage:
//
//	rmsynctl synth  [-server URL] [-timeout 30s] [-format pla|blif]
//	                [-retries 3] [-header K=V ...] [spec-file|-]
//	rmsynctl health [-server URL]           # /healthz and /readyz
//	rmsynctl metrics [-server URL]          # Prometheus exposition
//
// synth reads the PLA/BLIF spec from the named file or stdin and prints
// the rmsynd/v1 response body to stdout; volatile per-request facts
// (cache source, attempts) go to stderr.
//
// Exit codes: 0 success, 1 usage error, 2 request failed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/client"
)

const (
	exitUsage = 1
	exitFail  = 2
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(exitUsage)
	}
	switch os.Args[1] {
	case "synth":
		os.Exit(runSynth(os.Args[2:]))
	case "health":
		os.Exit(runHealth(os.Args[2:]))
	case "metrics":
		os.Exit(runMetrics(os.Args[2:]))
	case "-h", "--help", "help":
		usage()
		os.Exit(0)
	default:
		fmt.Fprintf(os.Stderr, "rmsynctl: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(exitUsage)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  rmsynctl synth  [-server URL] [-timeout D] [-format pla|blif] [-retries N] [-header K=V] [file|-]
  rmsynctl health [-server URL]
  rmsynctl metrics [-server URL]`)
}

// headerList collects repeated -header K=V flags.
type headerList map[string]string

func (h headerList) String() string { return fmt.Sprint(map[string]string(h)) }
func (h headerList) Set(v string) error {
	k, val, ok := strings.Cut(v, "=")
	if !ok || k == "" {
		return fmt.Errorf("want K=V, got %q", v)
	}
	h[k] = val
	return nil
}

func runSynth(args []string) int {
	fs := flag.NewFlagSet("synth", flag.ContinueOnError)
	var (
		serverURL = fs.String("server", "http://127.0.0.1:8177", "rmsynd server")
		timeout   = fs.Duration("timeout", 30*time.Second, "synthesis deadline, propagated as X-Rmsynd-Timeout")
		format    = fs.String("format", "", "force spec format: pla or blif (default: server sniffs)")
		retries   = fs.Int("retries", 3, "max re-submissions after shed/drain responses")
		headers   = headerList{}
	)
	fs.Var(headers, "header", "extra X-Rmsynd-* header as K=V (repeatable)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	spec, err := readSpec(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmsynctl:", err)
		return exitUsage
	}

	c, err := client.New(client.Config{BaseURL: *serverURL, MaxRetries: *retries})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmsynctl:", err)
		return exitUsage
	}

	res, err := c.Synthesize(context.Background(), spec, client.Options{
		Timeout: *timeout,
		Format:  *format,
		Headers: headers,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmsynctl:", err)
		return exitFail
	}
	fmt.Fprintf(os.Stderr, "rmsynctl: cache=%s attempts=%d\n", res.Cache, res.Attempts)
	os.Stdout.Write(res.Body)
	return 0
}

func runHealth(args []string) int {
	fs := flag.NewFlagSet("health", flag.ContinueOnError)
	serverURL := fs.String("server", "http://127.0.0.1:8177", "rmsynd server")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	c, err := client.New(client.Config{BaseURL: *serverURL})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmsynctl:", err)
		return exitUsage
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	code := 0
	for _, path := range []string{"/healthz", "/readyz"} {
		if err := c.Health(ctx, path); err != nil {
			fmt.Fprintf(os.Stderr, "rmsynctl: %v\n", err)
			code = exitFail
		} else {
			fmt.Printf("%s: ok\n", path)
		}
	}
	return code
}

func runMetrics(args []string) int {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	serverURL := fs.String("server", "http://127.0.0.1:8177", "rmsynd server")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	c, err := client.New(client.Config{BaseURL: *serverURL})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmsynctl:", err)
		return exitUsage
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	text, err := c.Metrics(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmsynctl:", err)
		return exitFail
	}
	fmt.Print(text)
	return 0
}

// readSpec loads the spec from a file, or stdin for "" or "-".
func readSpec(path string) ([]byte, error) {
	if path == "" || path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}
