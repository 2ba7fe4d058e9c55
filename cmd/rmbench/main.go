// Command rmbench regenerates Table 2 of the paper: every benchmark is
// synthesized with both the SIS-like SOP baseline and the paper's
// FPRM-based flow, both results are verified against the specification
// and technology-mapped, and the table (plus the Total arith. / Total all
// summary rows) is printed in the paper's layout.
//
// Usage:
//
//	rmbench                       # the full 41-circuit table
//	rmbench -only z4ml,t481,add6  # a subset
//	rmbench -arith                # arithmetic circuits only
//	rmbench -csv table2.csv       # also write CSV
//	rmbench -json BENCH_abc.json  # machine-readable artifact with per-run
//	                              # observability reports
//	rmbench -check baseline.json  # regression gate: run the baseline's
//	                              # circuits and fail on any literal-count
//	                              # increase, new degradation, or
//	                              # verification failure
//
// Scaling mode (generated word-level arithmetic instead of the fixed
// table; see internal/wordgen):
//
//	rmbench -family mul -widths 4:64         # literals/time vs operand width
//	rmbench -family add,cla,gfmul -widths 4:32
//	rmbench -family mul -widths 4:32 -json scale.json
//	rmbench -family mul -widths 4:32 -check scale_baseline.json
//	rmbench -check scale_baseline.json       # re-measure the whole curve
//
// -check dispatches on the baseline's schema field: an rmbench/v1 file
// gates the Table 2 run, an rmscale/v1 file gates the scaling sweep.
// Every scale instance is verified against its word-level spec — the
// algebraic backward-rewriting engine where BDDs blow up — and the gate
// applies the same one-sided discipline as the table gate, with wall
// time held only to a generous tolerance plus a log-log slope check.
//
// Exit codes: 0 success, 2 I/O failure or interrupt (Ctrl-C/SIGTERM; the
// running circuit drains through the degradation ladder and every
// completed row is still printed and flushed to the CSV and JSON
// artifacts — both stream per circuit, so even a hard kill leaves valid
// partial files), 3 regression against the -check baseline.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"repro/internal/bench"
	"repro/internal/core"
)

// exitFail follows rmsyn's exit-code convention: 2 for run/I/O failure,
// including an interrupt after the partial table has been flushed.
// exitRegress is distinct so CI can tell "the benchmark got worse" from
// "the benchmark did not run".
const (
	exitFail    = 2
	exitRegress = 3
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rmbench:", err)
	os.Exit(exitFail)
}

func main() {
	var (
		only     = flag.String("only", "", "comma-separated Table 2 circuit names")
		arith    = flag.Bool("arith", false, "arithmetic circuits only")
		csvPath  = flag.String("csv", "", "also write CSV to this file")
		method   = flag.Int("method", 1, "factorization method: 1 = cube, 2 = OFDD")
		basisF   = flag.String("basis", core.DefaultOptions().Basis.String(), "synthesis basis: auto | xor | sop | race")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget per circuit (0 = none)")
		maxNodes = flag.Int("max-nodes", 0, "BDD/OFDD node budget per circuit (0 = none)")
		jobs     = flag.Int("j", runtime.GOMAXPROCS(0), "derivation worker count (per-output FPRM fan-out)")
		retry    = flag.Float64("retry-factor", core.DefaultOptions().RetryFactor, "budget scale for the ladder's one retry of a transiently tripped output (0 = no retry)")
		jsonPath = flag.String("json", "", "write the machine-readable benchmark report to this file")
		check    = flag.String("check", "", "baseline report to gate against (rmbench/v1 or rmscale/v1; schema-dispatched)")
		family   = flag.String("family", "", "scaling mode: comma-separated wordgen families to sweep (add, cla, mul, wallace, parity, hamming, gfmul)")
		widths   = flag.String("widths", "4:32", "scaling mode: width sweep, lo:hi doubling (4:64 = 4,8,16,32,64) or an explicit list (4,6,12)")
		poly     = flag.String("poly", "", "scaling mode: gfmul reduction polynomial override, e.g. 0x11B")
	)
	flag.Parse()

	// Ctrl-C / SIGTERM cancels the circuit in flight through the budget
	// path; the loop below then stops between circuits so every finished
	// row still reaches the table and the CSV.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The scaling mode takes over when a family sweep is requested or
	// the -check baseline is an rmscale/v1 artifact.
	if *family != "" || scaleCheckRequested(*check) {
		scaleMain(scaleFlags{
			families: *family, widths: *widths, poly: *poly,
			jsonPath: *jsonPath, check: *check,
			method: *method, basis: *basisF, retry: *retry,
			jobs: *jobs, timeout: *timeout, maxNodes: *maxNodes,
		}, sigCtx)
	}

	// Load the baseline first: a bad path should fail before an hour of
	// benchmarking, and its circuit list defines the default run set.
	var baseRep *bench.Report
	if *check != "" {
		rep, err := bench.ReadReport(*check)
		if err != nil {
			fail(err)
		}
		baseRep = rep
	}

	opt := bench.DefaultOptions()
	opt.Core.Method = core.Method(*method)
	basis, err := core.ParseBasis(*basisF)
	if err != nil {
		fail(err)
	}
	opt.Core.Basis = basis
	opt.Core.RetryFactor = *retry
	opt.Ctx = sigCtx
	opt.Timeout = *timeout
	if *maxNodes > 0 {
		opt.Core.MaxBDDNodes = *maxNodes
		opt.Core.MaxOFDDNodes = *maxNodes
	}
	opt.Core.Workers = *jobs
	opt.Stats = *jsonPath != "" || baseRep != nil
	if *only != "" {
		names := map[string]bool{}
		var unknown []string
		for _, n := range strings.Split(*only, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if _, ok := bench.ByName(n); !ok {
				unknown = append(unknown, n)
			}
			names[n] = true
		}
		if len(unknown) > 0 {
			fail(fmt.Errorf("-only: not a Table 2 circuit: %s", strings.Join(unknown, ", ")))
		}
		opt.Include = func(c bench.Circuit) bool { return names[c.Name] }
	} else if *arith {
		opt.Include = func(c bench.Circuit) bool { return c.Arith }
	} else if baseRep != nil {
		names := map[string]bool{}
		for _, c := range baseRep.Circuits {
			names[c.Name] = true
		}
		opt.Include = func(c bench.Circuit) bool { return names[c.Name] }
	}

	// Open the CSV before the run and stream rows as circuits complete,
	// so an interrupt or a crash late in the table loses nothing.
	var csvFile *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fail(err)
		}
		csvFile = f
		if err := bench.WriteCSVHeader(csvFile); err != nil {
			fail(err)
		}
	}

	// The JSON artifact streams the same way the CSV does: the file is
	// created before the run and rewritten in place after every circuit,
	// so a Ctrl-C (or a kill -9) mid-table leaves a valid partial
	// rmbench/v1 report of everything that finished, not an empty file.
	var jsonFile *os.File
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fail(err)
		}
		jsonFile = f
	}
	flushJSON := func(rows []bench.Row) error {
		if jsonFile == nil {
			return nil
		}
		if _, err := jsonFile.Seek(0, 0); err != nil {
			return err
		}
		if err := jsonFile.Truncate(0); err != nil {
			return err
		}
		return bench.BuildReport(rows).WriteJSON(jsonFile)
	}

	fmt.Fprintf(os.Stderr, "derivation workers: %d\n", *jobs)
	var rows []bench.Row
	interrupted := false
	for _, c := range bench.Circuits() {
		if opt.Include != nil && !opt.Include(c) {
			continue
		}
		if sigCtx.Err() != nil {
			interrupted = true
			break
		}
		fmt.Fprintf(os.Stderr, "running %-10s (%d/%d)...\n", c.Name, c.In, c.Out)
		r := bench.RunCircuit(c, opt)
		if r.OursPhases != "" {
			fmt.Fprintf(os.Stderr, "  %s: workers=%d %s\n", c.Name, r.Workers, r.OursPhases)
		}
		rows = append(rows, r)
		if csvFile != nil {
			if err := bench.WriteCSVRow(csvFile, r); err != nil {
				fail(err)
			}
		}
		if err := flushJSON(rows); err != nil {
			fail(err)
		}
	}
	interrupted = interrupted || sigCtx.Err() != nil

	arithRow, allRow := bench.Summaries(rows)
	bench.WriteTable(os.Stdout, rows, arithRow, allRow)
	fmt.Printf("\npaper reference: Total arith. improve %%lits = 17.3, %%power = 22.4; Total all = 11.9 / 18.0\n")

	if csvFile != nil {
		var werr error
		werr = bench.WriteCSVRow(csvFile, arithRow)
		if err := bench.WriteCSVRow(csvFile, allRow); werr == nil {
			werr = err
		}
		// Close errors matter here: the CSV is the artifact of a long
		// run, and a full disk must not report success.
		if err := csvFile.Close(); werr == nil {
			werr = err
		}
		if werr != nil {
			fail(werr)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}

	if opt.Stats {
		rep := bench.BuildReport(rows)
		if jsonFile != nil {
			// Final flush + close: the per-circuit streaming already wrote
			// this content, but the close error still matters (full disk).
			werr := flushJSON(rows)
			if err := jsonFile.Close(); werr == nil {
				werr = err
			}
			if werr != nil {
				fail(werr)
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
		if baseRep != nil && !interrupted {
			regs := bench.Check(rep, baseRep)
			if len(regs) > 0 {
				fmt.Fprintf(os.Stderr, "rmbench: %d regression(s) against %s:\n", len(regs), *check)
				for _, r := range regs {
					fmt.Fprintln(os.Stderr, "  "+r.String())
				}
				os.Exit(exitRegress)
			}
			fmt.Printf("regression gate: %d circuits checked against %s, no regressions\n",
				len(baseRep.Circuits), *check)
		}
	}

	if interrupted {
		fail(fmt.Errorf("interrupted after %d circuits; partial table and CSV flushed", len(rows)))
	}
}
