// Command rmatpg evaluates the testability claims of the paper on any
// built-in benchmark: it synthesizes the circuit with the FPRM flow and
// with the SOP baseline, runs PODEM-based test generation on both, and
// reports fault counts, redundancies, test-set sizes, and the fault
// coverage achieved by the paper's OC ∪ SA1 ∪ {AZ, AO} pattern set alone.
//
// Usage:
//
//	rmatpg -circuit z4ml
//	rmatpg -circuit rd73 -backtracks 50000
//	rmatpg -circuit mul4 -pprof prof   # prof.cpu.pprof + prof.heap.pprof
//
// Exit codes: 0 success, 1 usage error, 2 synthesis failure or interrupt
// (Ctrl-C/SIGTERM drains synthesis through the degradation ladder, then
// exits before test generation starts).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/redund"
	"repro/internal/sisbase"
)

func main() {
	var (
		circuit    = flag.String("circuit", "", "built-in benchmark name")
		backtracks = flag.Int("backtracks", 10000, "PODEM backtrack limit")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget for synthesis (0 = none)")
		maxNodes   = flag.Int("max-nodes", 0, "BDD/OFDD node budget (0 = none)")
		jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "derivation worker count (per-output FPRM fan-out)")
		basisF     = flag.String("basis", core.DefaultOptions().Basis.String(), "synthesis basis: auto | xor | sop | race")
		pprofPfx   = flag.String("pprof", "", "write <prefix>.cpu.pprof and <prefix>.heap.pprof profiles")
	)
	// A malformed flag is a usage error: flag.ExitOnError would exit 2,
	// the synthesis-failure code.
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		os.Exit(1)
	}
	c, ok := bench.ByName(*circuit)
	if !ok {
		fmt.Fprintf(os.Stderr, "rmatpg: unknown circuit %q\n", *circuit)
		os.Exit(1)
	}
	if *pprofPfx != "" {
		cpu, err := os.Create(*pprofPfx + ".cpu.pprof")
		if err != nil {
			fmt.Fprintln(os.Stderr, "rmatpg:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			fmt.Fprintln(os.Stderr, "rmatpg:", err)
			os.Exit(2)
		}
		// ATPG is the expensive stage here, so profiles cover the whole
		// run; early exits below simply lose them.
		defer func() {
			pprof.StopCPUProfile()
			cpu.Close()
			if heap, err := os.Create(*pprofPfx + ".heap.pprof"); err == nil {
				runtime.GC()
				pprof.WriteHeapProfile(heap)
				heap.Close()
			}
		}()
	}
	spec := c.Build()

	// Ctrl-C / SIGTERM cancels both synthesis runs through the budget
	// path; the degraded results are dropped and the process exits
	// before the (uncancelable) test generation starts.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx := sigCtx
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opt := core.DefaultOptions()
	basis, err := core.ParseBasis(*basisF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmatpg:", err)
		os.Exit(1)
	}
	opt.Basis = basis
	opt.MaxBDDNodes = *maxNodes
	opt.MaxOFDDNodes = *maxNodes
	opt.Workers = *jobs
	if err := opt.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "rmatpg:", err)
		os.Exit(1)
	}

	ours, err := core.Synthesize(ctx, spec, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmatpg:", err)
		os.Exit(2)
	}
	if report := ours.FallbackReport(); report != "" {
		fmt.Fprintf(os.Stderr, "rmatpg: budget degradations:\n%s", report)
	}
	base, err := sisbase.Run(ctx, spec, sisbase.DefaultOptions())
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmatpg:", err)
		os.Exit(2)
	}
	if base.Stopped != "" {
		fmt.Fprintf(os.Stderr, "rmatpg: baseline stopped early: %s\n", base.Stopped)
	}
	// Testability numbers for a degraded (interrupted) network would be
	// misleading, and PODEM does not take a context — stop here.
	if sigCtx.Err() != nil {
		fmt.Fprintln(os.Stderr, "rmatpg: interrupted; skipping test generation")
		os.Exit(2)
	}

	fmt.Printf("%s (%d/%d)\n", c.Name, c.In, c.Out)
	show := func(name string, res *atpg.Result) {
		fmt.Printf("%-9s faults=%d detected=%d untestable=%d aborted=%d tests=%d coverage=%.1f%%\n",
			name, res.Total, res.Detected, len(res.Untestable), len(res.Aborted), len(res.Tests), res.CoveragePercent())
	}
	show("ours", atpg.Generate(ours.Network, *backtracks))
	show("baseline", atpg.Generate(base.Network, *backtracks))

	// The paper's claim: the FPRM pattern sets alone detect the faults.
	patterns := redund.BuildPatterns(ours.Forms, 4096, 1024)
	cov := atpg.MeasureCoverage(ours.Network, patterns)
	fmt.Printf("paper pattern set (AZ/AO/OC/SA1/unions): %d patterns, coverage %.1f%% of %d collapsed faults\n",
		len(patterns), cov.Percent(), cov.Total)
}
