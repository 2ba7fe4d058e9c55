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
// Both gates make the same one-sided cost check per entry; every scale
// instance is verified against its word-level spec — the algebraic
// backward-rewriting engine where BDDs blow up — and the curve's wall
// time is held only to a generous tolerance plus a log-log slope check.
//
// The Table 2 flags (-only, -arith, -csv) and the scaling flags
// (-widths, -poly) each belong to their mode: setting one in the other
// mode is a bad option.
//
// Exit codes: 0 success, 2 bad option, I/O failure or interrupt
// (Ctrl-C/SIGTERM; the running entry drains through the degradation
// ladder and every completed row is still printed and flushed to the
// CSV and JSON artifacts — both stream per entry, so even a hard kill
// leaves valid partial files), 3 regression against the -check
// baseline.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/big"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/wordgen"
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
		maxNodes = flag.Int("max-nodes", 0, "BDD/OFDD node budget per entry (0 = none for Table 2, the scale caps for a scaling run)")
		jobs     = flag.Int("j", runtime.GOMAXPROCS(0), "derivation worker count (per-output FPRM fan-out)")
		jsonPath = flag.String("json", "", "write the machine-readable benchmark report to this file")
		check    = flag.String("check", "", "baseline report to gate against (rmbench/v1 or rmscale/v1; schema-dispatched)")
		family   = flag.String("family", "", "scaling mode: comma-separated wordgen families to sweep (add, cla, mul, wallace, parity, hamming, gfmul)")
		widths   = flag.String("widths", "4:32", "scaling mode: width sweep, lo:hi doubling (4:64 = 4,8,16,32,64) or an explicit list (4,6,12)")
		poly     = flag.String("poly", "", "scaling mode: gfmul reduction polynomial override, e.g. 0x11B")
	)
	flag.Parse()

	// Load the baseline first: a bad path should fail before an hour of
	// benchmarking, its schema picks the mode, and its entries are the
	// default run set.
	var table *bench.Report
	var curve *bench.ScaleReport
	if *check != "" {
		var err error
		if table, curve, err = bench.ReadBaseline(*check); err != nil {
			fail(err)
		}
	}
	// flow maps the flow flags onto a mode's base options, the same way
	// for both modes, and exits on a value Validate rejects before any
	// entry runs.
	flow := func(opt core.Options) core.Options {
		basis, err := core.ParseBasis(*basisF)
		if err != nil {
			fail(err)
		}
		opt.Method = core.Method(*method)
		opt.Basis = basis
		opt.Workers = *jobs
		// 0 keeps the mode's own caps; a negative value reaches Validate.
		if *maxNodes != 0 {
			opt.MaxBDDNodes = *maxNodes
			opt.MaxOFDDNodes = *maxNodes
		}
		if err := opt.Validate(); err != nil {
			fail(err)
		}
		return opt
	}

	// Ctrl-C / SIGTERM cancels the entry in flight through the budget
	// path; the entry loop then stops between entries so every finished
	// one still reaches the table and the artifacts.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	h := harness{sigCtx: sigCtx, timeout: *timeout, workers: *jobs, jsonPath: *jsonPath, check: *check}
	if *family != "" || curve != nil {
		if table != nil {
			fail(fmt.Errorf("%s: unsupported schema %q (want %q)", *check, bench.ReportSchema, bench.ScaleSchema))
		}
		rejectFlags("a scaling", "only", "arith", "csv")
		opt := bench.DefaultScaleOptions()
		opt.Core = flow(opt.Core)
		specs, err := scaleSet(*family, *widths, *poly, curve)
		if err != nil {
			fail(err)
		}
		run(h, scaleMode(specs, opt, curve))
	} else {
		rejectFlags("a Table 2", "widths", "poly")
		opt := bench.DefaultOptions()
		opt.Core = flow(opt.Core)
		opt.Stats = *jsonPath != "" || table != nil
		circuits, err := tableSet(*only, *arith, table)
		if err != nil {
			fail(err)
		}
		run(h, tableMode(circuits, opt, table, *csvPath))
	}
}

// rejectFlags exits when one of the named flags, which belong to the
// other mode, was set on the command line; flag.Visit sees only the flags
// that were set, so a default such as -widths' does not count.
func rejectFlags(run string, names ...string) {
	flag.Visit(func(f *flag.Flag) {
		for _, n := range names {
			if f.Name == n {
				fail(fmt.Errorf("-%s does not apply to %s run", n, run))
			}
		}
	})
}

// mode is what differs between rmbench's two run sets, the Table 2
// circuits and a scaling sweep; run drives either through one entry
// loop, one streaming artifact and one gate printout.
type mode[E any] struct {
	noun   string                             // "circuits" or "points"
	n      int                                // entries in the run set
	header string                             // printed before the first entry
	entry  func(ctx context.Context, i int) E // runs entry i and prints its progress
	report func(done []E) any                 // the JSON artifact of the finished entries
	finish func(done []E)                     // prints the summary after the loop
	check  func(done []E) []bench.Regression  // the gate; nil without -check
}

// harness is the run-wide configuration both modes share.
type harness struct {
	sigCtx   context.Context // canceled by Ctrl-C / SIGTERM
	timeout  time.Duration   // per-entry deadline; 0 means none
	workers  int             // -j, for the progress line
	jsonPath string
	check    string
}

// run executes m's entries in order, each under its own -timeout
// context, and stops between entries once a signal arrived. The JSON
// artifact is created before the run and rewritten in place after every
// entry, so a Ctrl-C (or a kill -9) mid-run leaves a valid partial
// report of everything that finished, not an empty file.
func run[E any](h harness, m mode[E]) {
	var art *os.File
	if h.jsonPath != "" {
		f, err := os.Create(h.jsonPath)
		if err != nil {
			fail(err)
		}
		art = f
	}
	flush := func(done []E) error {
		if art == nil {
			return nil
		}
		if _, err := art.Seek(0, 0); err != nil {
			return err
		}
		if err := art.Truncate(0); err != nil {
			return err
		}
		return bench.WriteJSON(art, m.report(done))
	}

	fmt.Fprintf(os.Stderr, "%d %s, derivation workers: %d\n", m.n, m.noun, h.workers)
	fmt.Print(m.header)
	var done []E
	for i := 0; i < m.n && h.sigCtx.Err() == nil; i++ {
		ctx, cancel := context.WithCancel(h.sigCtx)
		if h.timeout > 0 {
			ctx, cancel = context.WithTimeout(h.sigCtx, h.timeout)
		}
		done = append(done, m.entry(ctx, i))
		cancel()
		if err := flush(done); err != nil {
			fail(err)
		}
	}
	interrupted := h.sigCtx.Err() != nil
	m.finish(done)

	if art != nil {
		// The close error still matters after the streamed writes: a
		// full disk must not report success.
		werr := flush(done)
		if err := art.Close(); werr == nil {
			werr = err
		}
		if werr != nil {
			fail(werr)
		}
		fmt.Printf("wrote %s\n", h.jsonPath)
	}
	if m.check != nil && !interrupted {
		if regs := m.check(done); len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "rmbench: %d regression(s) against %s:\n", len(regs), h.check)
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "  "+r.String())
			}
			os.Exit(exitRegress)
		}
		fmt.Printf("regression gate: %d %s checked against %s, no regressions\n", len(done), m.noun, h.check)
	}
	if interrupted {
		fail(fmt.Errorf("interrupted after %d %s; partial results flushed", len(done), m.noun))
	}
}

// tableSet resolves the Table 2 run set in the paper's row order: the
// -only names, else the arithmetic circuits under -arith, else the
// baseline's circuits, else all 41.
func tableSet(only string, arith bool, base *bench.Report) ([]bench.Circuit, error) {
	include := func(bench.Circuit) bool { return true }
	switch {
	case only != "":
		names := map[string]bool{}
		var unknown []string
		for _, n := range strings.Split(only, ",") {
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
			return nil, fmt.Errorf("-only: not a Table 2 circuit: %s", strings.Join(unknown, ", "))
		}
		include = func(c bench.Circuit) bool { return names[c.Name] }
	case arith:
		include = func(c bench.Circuit) bool { return c.Arith }
	case base != nil:
		names := map[string]bool{}
		for _, c := range base.Circuits {
			names[c.Name] = true
		}
		include = func(c bench.Circuit) bool { return names[c.Name] }
	}
	var cs []bench.Circuit
	for _, c := range bench.Circuits() {
		if include(c) {
			cs = append(cs, c)
		}
	}
	return cs, nil
}

// tableMode runs Table 2 rows, streams the CSV as rows complete (so an
// interrupt or a crash late in the table loses nothing), and prints the
// table in the paper's layout at the end.
func tableMode(circuits []bench.Circuit, opt bench.Options, base *bench.Report, csvPath string) mode[bench.Row] {
	var csv *os.File
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			fail(err)
		}
		csv = f
		if err := bench.WriteCSVHeader(csv); err != nil {
			fail(err)
		}
	}
	m := mode[bench.Row]{
		noun: "circuits",
		n:    len(circuits),
		entry: func(ctx context.Context, i int) bench.Row {
			c := circuits[i]
			fmt.Fprintf(os.Stderr, "running %-10s (%d/%d)...\n", c.Name, c.In, c.Out)
			r := bench.RunCircuit(ctx, c, opt)
			if r.OursPhases != "" {
				fmt.Fprintf(os.Stderr, "  %s: workers=%d %s\n", c.Name, r.Workers, r.OursPhases)
			}
			if csv != nil {
				if err := bench.WriteCSVRow(csv, r); err != nil {
					fail(err)
				}
			}
			return r
		},
		report: func(rows []bench.Row) any { return bench.BuildReport(rows) },
		finish: func(rows []bench.Row) {
			arithRow, allRow := bench.Summaries(rows)
			bench.WriteTable(os.Stdout, rows, arithRow, allRow)
			fmt.Printf("\npaper reference: Total arith. improve %%lits = 17.3, %%power = 22.4; Total all = 11.9 / 18.0\n")
			if csv == nil {
				return
			}
			werr := bench.WriteCSVRow(csv, arithRow)
			if err := bench.WriteCSVRow(csv, allRow); werr == nil {
				werr = err
			}
			// Close errors matter here: the CSV is the artifact of a
			// long run, and a full disk must not report success.
			if err := csv.Close(); werr == nil {
				werr = err
			}
			if werr != nil {
				fail(werr)
			}
			fmt.Printf("wrote %s\n", csvPath)
		},
	}
	if base != nil {
		m.check = func(rows []bench.Row) []bench.Regression { return bench.Check(bench.BuildReport(rows), base) }
	}
	return m
}

// scaleSet resolves the scaling run set: -family × -widths when given,
// otherwise exactly the baseline's points (the CI invocation `rmbench
// -check scale_baseline.json` re-measures the whole committed curve).
func scaleSet(families, widths, poly string, base *bench.ScaleReport) ([]*wordgen.Spec, error) {
	var specs []*wordgen.Spec
	if families == "" {
		for _, p := range base.Points {
			s, err := wordgen.ByName(p.Name)
			if err != nil {
				return nil, fmt.Errorf("baseline point %s: %w", p.Name, err)
			}
			specs = append(specs, s)
		}
		return specs, nil
	}
	ws, err := bench.ParseWidths(widths)
	if err != nil {
		return nil, err
	}
	fams := strings.Split(families, ",")
	var p *big.Int
	if poly != "" {
		if len(fams) != 1 || fams[0] != "gfmul" {
			return nil, fmt.Errorf("-poly only applies to -family gfmul")
		}
		var ok bool
		if p, ok = new(big.Int).SetString(poly, 0); !ok {
			return nil, fmt.Errorf("bad polynomial %q", poly)
		}
	}
	for _, fam := range fams {
		for _, w := range ws {
			var s *wordgen.Spec
			if p != nil {
				s, err = wordgen.GenerateGF(w, p)
			} else {
				s, err = wordgen.Generate(strings.TrimSpace(fam), w)
			}
			if err != nil {
				return nil, err
			}
			specs = append(specs, s)
		}
	}
	return specs, nil
}

// scaleMode runs generated instances under deterministic caps, printing
// one curve row per point as it completes.
func scaleMode(specs []*wordgen.Spec, opt bench.ScaleOptions, base *bench.ScaleReport) mode[bench.ScalePoint] {
	m := mode[bench.ScalePoint]{
		noun: "points",
		n:    len(specs),
		header: fmt.Sprintf("%-12s %-9s | %7s %7s %7s | %3s | %-10s | %9s\n%s\n",
			"instance", "I/O", "lits", "mapgat", "maplit", "deg", "verify", "time", strings.Repeat("-", 84)),
		entry: func(ctx context.Context, i int) bench.ScalePoint {
			pt := bench.RunScalePoint(ctx, specs[i], opt)
			if pt.Err != "" {
				fmt.Printf("%-12s %-9s | ERROR: %s\n", pt.Name, fmt.Sprintf("%d/%d", pt.In, pt.Out), pt.Err)
				return pt
			}
			verdict := "FAILED"
			if pt.Verified {
				verdict = "ok/" + pt.VerifyMode
			}
			fmt.Printf("%-12s %-9s | %7d %7d %7d | %3d | %-10s | %8.1fms\n",
				pt.Name, fmt.Sprintf("%d/%d", pt.In, pt.Out),
				pt.OursLits, pt.MapGates, pt.MapLits, pt.Degradations, verdict, pt.TimeMS)
			return pt
		},
		report: func(pts []bench.ScalePoint) any { return bench.BuildScaleReport(pts) },
		finish: func([]bench.ScalePoint) {},
	}
	if base != nil {
		m.check = func(pts []bench.ScalePoint) []bench.Regression {
			return bench.CheckScale(bench.BuildScaleReport(pts), base)
		}
	}
	return m
}
