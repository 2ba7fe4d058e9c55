package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/core"
)

// ReportSchema identifies the benchmark-report JSON layout (the
// BENCH_<rev>.json CI artifact and the regression-gate baseline).
const ReportSchema = "rmbench/v1"

// Report is the machine-readable benchmark artifact: one entry per
// circuit with the comparable cost numbers flattened at the top level
// (what the regression gate reads) and the full per-run observability
// report nested under "run" (what a human debugging a regression
// reads).
type Report struct {
	Schema   string          `json:"schema"`
	Circuits []CircuitReport `json:"circuits"`
}

// Costs are the numbers both regression gates compare, one-sided: an
// entry regresses when one of them is worse than its baseline's.
type Costs struct {
	OursLits int `json:"ours_lits"`      // pre-map literals of the paper's flow
	MapGates int `json:"ours_map_gates"` // mapped gate count
	MapLits  int `json:"ours_map_lits"`  // mapped literals
	// Degradations counts the graceful-degradation ladder falls of the
	// run; the gate fails on any increase over the baseline.
	Degradations int  `json:"degradations"`
	Verified     bool `json:"verified"`
}

// CircuitReport is one circuit's benchmark outcome.
type CircuitReport struct {
	Name  string `json:"name"`
	In    int    `json:"in"`
	Out   int    `json:"out"`
	Arith bool   `json:"arith"`
	Costs
	Err string `json:"error,omitempty"`
	// Basis is the synthesis basis the flow ran under. Informational:
	// the gate compares costs, not routing.
	Basis string `json:"basis,omitempty"`
	// Run is the full observability report (phase times, cache hit
	// rates, rule counts, ladder detail); volatile fields are stripped
	// so reports diff cleanly.
	Run *core.RunStats `json:"run,omitempty"`
}

// BuildReport assembles the artifact from finished rows (summary rows
// excluded by the caller). Rows are sorted by circuit name so the
// artifact is stable regardless of run order.
func BuildReport(rows []Row) *Report {
	rep := &Report{Schema: ReportSchema}
	for _, r := range rows {
		cr := CircuitReport{
			Name:  r.Name,
			In:    r.In,
			Out:   r.Out,
			Arith: r.Arith,
			Costs: Costs{
				OursLits: r.OursLits,
				MapGates: r.OursGates,
				MapLits:  r.OursMapLits,
				Verified: r.Verified,
			},
			Err:   r.Err,
			Basis: r.Basis,
			Run:   r.Report,
		}
		if r.Report != nil {
			cr.Degradations = len(r.Report.Degradations)
		}
		rep.Circuits = append(rep.Circuits, cr)
	}
	sort.Slice(rep.Circuits, func(a, b int) bool {
		return rep.Circuits[a].Name < rep.Circuits[b].Name
	})
	return rep
}

// WriteJSON writes a report of either schema as indented JSON with a
// trailing newline.
func WriteJSON(w io.Writer, rep any) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadBaseline loads a regression-gate baseline and returns the report
// its schema names: an rmbench/v1 table or an rmscale/v1 curve, the
// other result nil. Any other schema is rejected.
func ReadBaseline(path string) (*Report, *ScaleReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(b, &head); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	var table *Report
	var curve *ScaleReport
	var dst any
	switch head.Schema {
	case ReportSchema:
		table = &Report{}
		dst = table
	case ScaleSchema:
		curve = &ScaleReport{}
		dst = curve
	default:
		return nil, nil, fmt.Errorf("%s: unsupported schema %q (want %q or %q)", path, head.Schema, ReportSchema, ScaleSchema)
	}
	if err := json.Unmarshal(b, dst); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return table, curve, nil
}

// Regression is one regression-gate finding.
type Regression struct {
	Circuit string
	Kind    string // "literals", "map-gates", "map-literals", "degradations", "verification", "error", "missing", and on the curve "time", "time-scaling"
	Detail  string
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s: %s", r.Circuit, r.Kind, r.Detail)
}

// missing is the finding for a baseline entry the current run lacks.
func missing(name string) Regression {
	return Regression{name, "missing", "present in baseline but not in current run"}
}

// checkEntry appends one entry's findings against its baseline to regs:
// a new error, else a lost verification, else every cost that grew. It
// reports whether the costs were compared.
func checkEntry(regs []Regression, name string, cur, base Costs, curErr, baseErr string) ([]Regression, bool) {
	if curErr != "" && baseErr == "" {
		return append(regs, Regression{name, "error", curErr}), false
	}
	if !cur.Verified && base.Verified {
		return append(regs, Regression{name, "verification", "result no longer verifies against its specification"}), false
	}
	for _, c := range []struct {
		kind, what string
		cur, base  int
	}{
		{"literals", "pre-map literals", cur.OursLits, base.OursLits},
		{"map-gates", "mapped gates", cur.MapGates, base.MapGates},
		{"map-literals", "mapped literals", cur.MapLits, base.MapLits},
		{"degradations", "degradation-ladder falls", cur.Degradations, base.Degradations},
	} {
		if c.cur > c.base {
			regs = append(regs, Regression{name, c.kind, fmt.Sprintf("%s %d > baseline %d", c.what, c.cur, c.base)})
		}
	}
	return regs, true
}

// Check compares a current report against a baseline and returns every
// regression: a pre-map literal-count increase, a mapped gate- or
// literal-count increase, a new degradation-ladder fall, a verification
// failure, a new error, or a baseline circuit missing from the current
// run. Improvements (fewer literals or gates, fewer degradations) pass
// silently — the gate is one-sided by design, so a better result never
// blocks a merge; refresh the baseline to lock it in.
func Check(cur, base *Report) []Regression {
	curBy := make(map[string]CircuitReport, len(cur.Circuits))
	for _, c := range cur.Circuits {
		curBy[c.Name] = c
	}
	var regs []Regression
	for _, b := range base.Circuits {
		c, ok := curBy[b.Name]
		if !ok {
			regs = append(regs, missing(b.Name))
			continue
		}
		regs, _ = checkEntry(regs, b.Name, c.Costs, b.Costs, c.Err, b.Err)
	}
	return regs
}
