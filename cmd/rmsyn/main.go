// Command rmsyn synthesizes one circuit with the paper's FPRM-based flow
// (and optionally the SIS-like baseline for comparison), prints the
// pre-mapping and post-mapping statistics, and can dump the synthesized
// network as BLIF.
//
// Usage:
//
//	rmsyn -circuit t481                 # a built-in Table 2 benchmark
//	rmsyn -blif design.blif             # or any combinational BLIF file
//	rmsyn -circuit z4ml -method 1 -polarity greedy -dump out.blif
//	rmsyn -circuit add6 -baseline       # also run the SOP baseline
//	rmsyn -circuit mlp4 -timeout 2s     # budgeted run (degrades gracefully)
//	rmsyn -circuit add6 -stats-json -   # pipeline metrics as JSON on stdout
//	rmsyn -circuit mul4 -pprof prof     # prof.cpu.pprof + prof.heap.pprof
//	rmsyn -list                         # list the built-in benchmarks
//
// Exit codes: 0 success, 1 usage error, 2 synthesis or budget failure,
// 3 verification mismatch.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sisbase"
	"repro/internal/sop"
	"repro/internal/techmap"
)

func main() {
	var (
		circuit   = flag.String("circuit", "", "built-in benchmark name (see -list)")
		blifIn    = flag.String("blif", "", "input BLIF file")
		plaIn     = flag.String("pla", "", "input espresso PLA file")
		method    = flag.Int("method", 1, "factorization method: 1 = cube, 2 = OFDD")
		polarity  = flag.String("polarity", "greedy", "FPRM polarity search: positive | greedy | exhaustive")
		basisFlag = flag.String("basis", core.DefaultOptions().Basis.String(), "synthesis basis: auto | xor | sop | race")
		noRules   = flag.Bool("no-rules", false, "disable the Section 3 reduction rules")
		noRedund  = flag.Bool("no-redund", false, "disable the Section 4 redundancy removal")
		baseline  = flag.Bool("baseline", false, "also run the SIS-like SOP baseline")
		dump      = flag.String("dump", "", "write the synthesized network as BLIF")
		doMap     = flag.Bool("map", true, "technology-map the results")
		list      = flag.Bool("list", false, "list built-in benchmarks")
		doVerify  = flag.Bool("verify", true, "verify the result against the specification (redundancy removal checks its rewrites either way)")
		showForms = flag.Bool("forms", false, "print per-output FPRM cube counts")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget for synthesis (0 = none)")
		maxNodes  = flag.Int("max-nodes", 0, "BDD/OFDD node budget (0 = none)")
		jobs      = flag.Int("j", runtime.GOMAXPROCS(0), "derivation worker count (per-output FPRM fan-out)")
		retry     = flag.Float64("retry-factor", core.DefaultOptions().RetryFactor, "budget scale for the ladder's one retry of a transiently tripped output (0 = no retry)")
		statsJSON = flag.String("stats-json", "", "write the pipeline observability report as JSON to this file (\"-\" = stdout)")
		pprofPfx  = flag.String("pprof", "", "write <prefix>.cpu.pprof and <prefix>.heap.pprof profiles")
	)
	// Parse manually so malformed flags exit with the documented usage
	// code (flag.ExitOnError would exit 2, the synthesis-failure code).
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		os.Exit(exitUsage)
	}

	if *list {
		for _, c := range bench.Circuits() {
			kind := "ctrl "
			if c.Arith {
				kind = "arith"
			}
			note := c.Note
			if note == "" {
				note = "exact reconstruction"
			}
			fmt.Printf("%-10s %4d/%-4d %s  %s\n", c.Name, c.In, c.Out, kind, note)
		}
		return
	}

	spec, name, err := loadSpec(*circuit, *blifIn, *plaIn)
	if err != nil {
		fail(exitUsage, err)
	}

	if *pprofPfx != "" {
		stop, err := startProfiles(*pprofPfx)
		if err != nil {
			fail(exitSynth, err)
		}
		stopProfiles = stop
		defer stop()
	}

	opt := core.DefaultOptions()
	opt.Method = core.Method(*method)
	if opt.Polarity, err = core.ParsePolarity(*polarity); err != nil {
		fail(exitUsage, err)
	}
	if opt.Basis, err = core.ParseBasis(*basisFlag); err != nil {
		fail(exitUsage, err)
	}
	opt.Rules = !*noRules
	opt.Redund = !*noRedund
	opt.Verify = *doVerify
	opt.MaxBDDNodes = *maxNodes
	opt.MaxOFDDNodes = *maxNodes
	opt.Workers = *jobs
	opt.RetryFactor = *retry
	if *statsJSON != "" {
		opt.Obs = obs.NewCollector()
	}
	if err := opt.Validate(); err != nil {
		fail(exitUsage, err)
	}

	// Ctrl-C / SIGTERM cancels the synthesis context: the flow drains
	// through the degradation ladder (partial results are still printed
	// below) instead of the process dying mid-phase.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx := sigCtx
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	res, err := core.Synthesize(ctx, spec, opt)
	if err != nil {
		if errors.Is(err, core.ErrNotEquivalent) {
			fail(exitVerify, err)
		}
		fail(exitSynth, err)
	}
	if report := res.FallbackReport(); report != "" {
		fmt.Fprintf(os.Stderr, "rmsyn: budget degradations:\n%s", report)
	}
	if *statsJSON != "" {
		if err := writeStats(res.RunStats(name), *statsJSON); err != nil {
			fail(exitSynth, err)
		}
	}
	// With the JSON report on stdout, the human-readable report moves to
	// stderr so a piped consumer sees pure JSON.
	out := io.Writer(os.Stdout)
	if *statsJSON == "-" {
		out = os.Stderr
	}
	fmt.Fprintf(out, "%s: %d PIs, %d POs\n", name, spec.NumPIs(), spec.NumPOs())
	// Workers is 0 when the derivation fan-out never ran (the spec-bdd
	// budget tripped before it): omit the count rather than print "0".
	workerNote := ""
	if res.Workers > 0 {
		workerNote = fmt.Sprintf(", %d workers", res.Workers)
	}
	fmt.Fprintf(out, "ours:     %4d 2-input gates, %4d lits, %d XOR gates (%.3fs%s, basis=%s)\n",
		res.Stats.Gates2, res.Stats.Lits, res.Stats.XORs, res.Elapsed.Seconds(), workerNote, res.Basis)
	for _, pt := range res.PhaseTimes {
		fmt.Fprintf(out, "          phase %-8s %s\n", pt.Name, pt.Elapsed.Round(time.Microsecond))
	}
	fmt.Fprintf(out, "          redundancy removal: %+v\n", res.Redund)
	if *showForms {
		for i, n := range res.CubeCounts {
			fmt.Fprintf(out, "          output %-12s FPRM cubes: %d\n", spec.POs[i].Name, n)
		}
	}
	if *doVerify {
		// Synthesize verified the network it returned (Options.Verify);
		// a mismatch already exited above with ErrNotEquivalent.
		fmt.Fprintln(out, "          verified equivalent to the specification")
	}
	// An interrupt drained the ladder above; the stats and degradation
	// report for the partial result are already printed, so exit under
	// the documented convention instead of starting mapping or baseline
	// work the user just asked to stop.
	if sigCtx.Err() != nil {
		fail(exitSynth, errors.New("interrupted; partial (degraded) result reported above"))
	}
	if *doMap {
		m, err := techmap.Map(res.Network, techmap.Library())
		if err != nil {
			fail(exitSynth, err)
		}
		p := power.EstimateMapped(m)
		fmt.Fprintf(out, "mapped:   %s power=%.2f\n", m, p.Total)
	}

	if *baseline {
		sres, err := sisbase.Run(ctx, spec, sisbase.DefaultOptions())
		if err != nil {
			fail(exitSynth, err)
		}
		if sres.Stopped != "" {
			fmt.Fprintf(os.Stderr, "rmsyn: baseline stopped early: %s\n", sres.Stopped)
		}
		fmt.Fprintf(out, "baseline: %4d 2-input gates, %4d lits (%.3fs)\n",
			sres.Stats.Gates2, sres.Stats.Lits, sres.Elapsed.Seconds())
		if *doMap {
			m, err := techmap.Map(sres.Network, techmap.Library())
			if err != nil {
				fail(exitSynth, err)
			}
			p := power.EstimateMapped(m)
			fmt.Fprintf(out, "mapped:   %s power=%.2f\n", m, p.Total)
		}
	}

	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			fail(exitSynth, err)
		}
		defer f.Close()
		if err := res.Network.WriteBLIF(f); err != nil {
			fail(exitSynth, err)
		}
		fmt.Fprintf(out, "wrote %s\n", *dump)
	}
}

func loadSpec(circuit, blifIn, plaIn string) (*network.Network, string, error) {
	switch {
	case circuit != "":
		c, ok := bench.ByName(circuit)
		if !ok {
			return nil, "", fmt.Errorf("unknown circuit %q (use -list)", circuit)
		}
		return c.Build(), c.Name, nil
	case blifIn != "":
		f, err := os.Open(blifIn)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		net, err := network.ReadBLIF(f)
		if err != nil {
			return nil, "", err
		}
		return net, net.Name, nil
	case plaIn != "":
		f, err := os.Open(plaIn)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		p, err := sop.ParsePLA(f)
		if err != nil {
			return nil, "", err
		}
		return network.FromPLA(p), plaIn, nil
	}
	return nil, "", fmt.Errorf("specify -circuit, -blif or -pla (or -list)")
}

// writeStats writes the observability report to path ("-" = stdout).
func writeStats(rs *core.RunStats, path string) error {
	if path == "-" {
		return rs.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rs.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startProfiles starts a CPU profile at <prefix>.cpu.pprof and returns
// a stop function that finishes it and snapshots the heap to
// <prefix>.heap.pprof. The stop function is idempotent: fail() calls it
// on early exits (os.Exit skips defers) and main defers it too.
func startProfiles(prefix string) (func(), error) {
	cpu, err := os.Create(prefix + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		pprof.StopCPUProfile()
		cpu.Close()
		heap, err := os.Create(prefix + ".heap.pprof")
		if err != nil {
			fmt.Fprintln(os.Stderr, "rmsyn: heap profile:", err)
			return
		}
		runtime.GC() // fresh statistics, the usual pprof idiom
		if err := pprof.WriteHeapProfile(heap); err != nil {
			fmt.Fprintln(os.Stderr, "rmsyn: heap profile:", err)
		}
		heap.Close()
	}, nil
}

// stopProfiles finalizes -pprof output on the fail() path, where
// os.Exit would skip main's defer.
var stopProfiles func()

// Exit codes (documented in the package comment and README).
const (
	exitUsage  = 1 // bad flags, unknown circuit, unreadable input
	exitSynth  = 2 // synthesis, budget, mapping, or I/O failure
	exitVerify = 3 // result not equivalent to the specification
)

func fail(code int, err error) {
	if stopProfiles != nil {
		stopProfiles()
	}
	fmt.Fprintln(os.Stderr, "rmsyn:", err)
	os.Exit(code)
}
