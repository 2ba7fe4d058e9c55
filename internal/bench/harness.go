package bench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sisbase"
	"repro/internal/techmap"
	"repro/internal/verify"
)

// Row is one line of the reproduced Table 2.
type Row struct {
	Name  string
	In    int
	Out   int
	Arith bool
	Note  string

	// Before technology mapping (2-input AND/OR gates; lits = 2 × gates,
	// XOR = 3 gates — the paper's pre-map metric).
	SISLits  int
	SISTime  time.Duration
	OursLits int
	OursTime time.Duration

	// After technology mapping.
	SISGates    int
	SISMapLits  int
	OursGates   int
	OursMapLits int

	// Percent improvements (positive = ours better), the paper's last
	// two columns.
	ImproveLits  float64
	ImprovePower float64

	SISPower  float64
	OursPower float64

	// Workers is the derivation worker count the FPRM flow ran with,
	// and OursPhases its per-phase wall-clock breakdown (e.g.
	// "fprm=12ms factor=3ms"), both from core.Result.
	Workers    int
	OursPhases string

	// Basis is the synthesis basis the flow ran under ("xor", "sop",
	// "auto", "race"), from core.Result.
	Basis string

	// Report is the full observability report of the paper's flow, with
	// volatile fields stripped; nil unless Options.Stats was set.
	Report *core.RunStats

	Verified bool
	Err      string
}

// renderPhases flattens a phase-time list into one space-separated
// "name=duration" field for the CSV and verbose output.
func renderPhases(pts []core.PhaseTime) string {
	parts := make([]string, len(pts))
	for i, pt := range pts {
		parts[i] = fmt.Sprintf("%s=%s", pt.Name, pt.Elapsed.Round(time.Microsecond))
	}
	return strings.Join(parts, " ")
}

// Options configure a Table 2 run. Both flows' results are always
// verified against the specification; the SIS baseline runs
// sisbase.DefaultOptions().
type Options struct {
	Core    core.Options // the paper's flow configuration
	Include func(c Circuit) bool

	// Ctx is the base context every per-circuit deadline derives from;
	// nil means context.Background(). Canceling it (e.g. from a signal
	// handler) drains the running circuit through the degradation
	// ladder instead of killing the process mid-run.
	Ctx context.Context

	// Timeout bounds each circuit's synthesis (both flows) in wall-clock
	// time; 0 means no deadline. A circuit that hits it still produces a
	// row — the budgeted flow degrades instead of failing — and the row's
	// Note records what fired.
	Timeout time.Duration
	// Stats collects the observability report per circuit (Row.Report),
	// the payload of the JSON artifact and the regression gate.
	Stats bool
}

// DefaultOptions mirrors the paper's experiment.
func DefaultOptions() Options {
	return Options{Core: core.DefaultOptions()}
}

// RunCircuit produces one Table 2 row.
func RunCircuit(c Circuit, opt Options) Row {
	row := Row{Name: c.Name, In: c.In, Out: c.Out, Arith: c.Arith, Note: c.Note, Verified: true}
	spec := c.Build()

	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	coreOpt := opt.Core
	if opt.Stats {
		coreOpt.Obs = obs.NewCollector()
	}

	sisRes, err := sisbase.Run(ctx, spec, sisbase.DefaultOptions())
	if err != nil {
		row.Err = "sis: " + err.Error()
		return row
	}
	if sisRes.Stopped != "" {
		row.Note = appendNote(row.Note, "sis stopped: "+sisRes.Stopped)
	}
	row.SISLits = sisRes.Stats.Lits
	row.SISTime = sisRes.Elapsed

	oursRes, err := core.Synthesize(ctx, spec, coreOpt)
	if err != nil {
		row.Err = "ours: " + err.Error()
		return row
	}
	if n := len(oursRes.Degradations); n > 0 {
		row.Note = appendNote(row.Note, fmt.Sprintf("degraded x%d", n))
	}
	row.OursLits = oursRes.Stats.Lits
	row.OursTime = oursRes.Elapsed
	row.Workers = oursRes.Workers
	row.OursPhases = renderPhases(oursRes.PhaseTimes)
	row.Basis = oursRes.Basis
	if opt.Stats {
		// Volatile fields are stripped so reports of the same rev diff
		// cleanly; wall-clock lives in the CSV columns instead.
		row.Report = oursRes.RunStats(c.Name).StripVolatile()
	}

	for _, res := range []*network.Network{sisRes.Network, oursRes.Network} {
		eq, verr := verify.Equivalent(spec, res)
		if verr != nil || !eq {
			row.Verified = false
			row.Err = fmt.Sprintf("verification failed (%v)", verr)
			return row
		}
	}

	lib := techmap.Library()
	sisMap, err := techmap.Map(sisRes.Network, lib)
	if err != nil {
		row.Err = "map sis: " + err.Error()
		return row
	}
	oursMap, err := techmap.Map(oursRes.Network, lib)
	if err != nil {
		row.Err = "map ours: " + err.Error()
		return row
	}
	row.SISGates = sisMap.Gates
	row.SISMapLits = sisMap.Lits
	row.OursGates = oursMap.Gates
	row.OursMapLits = oursMap.Lits
	if row.SISMapLits > 0 {
		row.ImproveLits = 100 * float64(row.SISMapLits-row.OursMapLits) / float64(row.SISMapLits)
	}

	row.SISPower = power.EstimateMapped(sisMap).Total
	row.OursPower = power.EstimateMapped(oursMap).Total
	if row.SISPower > 0 {
		row.ImprovePower = 100 * (row.SISPower - row.OursPower) / row.SISPower
	}
	return row
}

func appendNote(note, extra string) string {
	if note == "" {
		return extra
	}
	return note + "; " + extra
}

// Table2 runs the full benchmark set and returns all rows plus the two
// summary rows (Total arith. and Total all) like the paper.
func Table2(opt Options) ([]Row, Row, Row) {
	var rows []Row
	for _, c := range Circuits() {
		if opt.Include != nil && !opt.Include(c) {
			continue
		}
		rows = append(rows, RunCircuit(c, opt))
	}
	arith := summarize("Total arith.", rows, true)
	all := summarize("Total all", rows, false)
	return rows, arith, all
}

// Summaries computes the Total arith. / Total all rows for a row set.
func Summaries(rows []Row) (arith, all Row) {
	return summarize("Total arith.", rows, true), summarize("Total all", rows, false)
}

func summarize(name string, rows []Row, arithOnly bool) Row {
	out := Row{Name: name, Verified: true}
	var sumPowerSIS, sumPowerOurs float64
	for _, r := range rows {
		if arithOnly && !r.Arith {
			continue
		}
		if r.Err != "" {
			out.Err = "some rows failed"
			continue
		}
		out.SISLits += r.SISLits
		out.OursLits += r.OursLits
		out.SISTime += r.SISTime
		out.OursTime += r.OursTime
		out.SISGates += r.SISGates
		out.SISMapLits += r.SISMapLits
		out.OursGates += r.OursGates
		out.OursMapLits += r.OursMapLits
		sumPowerSIS += r.SISPower
		sumPowerOurs += r.OursPower
		out.Verified = out.Verified && r.Verified
	}
	if out.SISMapLits > 0 {
		out.ImproveLits = 100 * float64(out.SISMapLits-out.OursMapLits) / float64(out.SISMapLits)
	}
	if sumPowerSIS > 0 {
		out.ImprovePower = 100 * (sumPowerSIS - sumPowerOurs) / sumPowerSIS
	}
	out.SISPower = sumPowerSIS
	out.OursPower = sumPowerOurs
	return out
}

// WriteTable renders rows in the paper's Table 2 layout.
func WriteTable(w io.Writer, rows []Row, arith, all Row) {
	fmt.Fprintf(w, "%-10s %-8s | %6s %8s | %6s %8s | %6s %6s | %6s %6s | %8s %8s\n",
		"Circuit", "I/O", "SISlit", "SIStime", "ourlit", "ourtime", "SISgat", "SISlit", "ourgat", "ourlit", "impr%lit", "impr%pow")
	fmt.Fprintln(w, strings.Repeat("-", 120))
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(w, "%-10s %-8s | ERROR: %s\n", r.Name, fmt.Sprintf("%d/%d", r.In, r.Out), r.Err)
			continue
		}
		fmt.Fprintf(w, "%-10s %-8s | %6d %8.2f | %6d %8.2f | %6d %6d | %6d %6d | %8.1f %8.1f\n",
			r.Name, fmt.Sprintf("%d/%d", r.In, r.Out),
			r.SISLits, r.SISTime.Seconds(), r.OursLits, r.OursTime.Seconds(),
			r.SISGates, r.SISMapLits, r.OursGates, r.OursMapLits,
			r.ImproveLits, r.ImprovePower)
	}
	fmt.Fprintln(w, strings.Repeat("-", 120))
	for _, r := range []Row{arith, all} {
		fmt.Fprintf(w, "%-10s %-8s | %6d %8.2f | %6d %8.2f | %6d %6d | %6d %6d | %8.1f %8.1f\n",
			r.Name, "",
			r.SISLits, r.SISTime.Seconds(), r.OursLits, r.OursTime.Seconds(),
			r.SISGates, r.SISMapLits, r.OursGates, r.OursMapLits,
			r.ImproveLits, r.ImprovePower)
	}
}

// WriteCSVHeader writes the CSV column header. Together with
// WriteCSVRow it lets callers stream rows as circuits complete, so an
// interrupt or a late failure keeps every finished row on disk.
func WriteCSVHeader(w io.Writer) error {
	_, err := fmt.Fprintln(w, "circuit,in,out,arith,sis_lits,sis_time_s,ours_lits,ours_time_s,sis_gates,sis_map_lits,ours_gates,ours_map_lits,improve_lits_pct,improve_power_pct,workers,ours_phases,basis,verified,note")
	return err
}

// WriteCSVRow renders one row in the WriteCSVHeader column order.
func WriteCSVRow(w io.Writer, r Row) error {
	_, err := fmt.Fprintf(w, "%s,%d,%d,%t,%d,%.4f,%d,%.4f,%d,%d,%d,%d,%.2f,%.2f,%d,%q,%s,%t,%q\n",
		r.Name, r.In, r.Out, r.Arith,
		r.SISLits, r.SISTime.Seconds(), r.OursLits, r.OursTime.Seconds(),
		r.SISGates, r.SISMapLits, r.OursGates, r.OursMapLits,
		r.ImproveLits, r.ImprovePower, r.Workers, r.OursPhases, r.Basis, r.Verified, r.Note)
	return err
}
