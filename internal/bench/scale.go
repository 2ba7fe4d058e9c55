package bench

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/techmap"
	"repro/internal/verify"
	"repro/internal/wordgen"
)

// This file adds the scaling-curve mode: instead of the 41 fixed Table 2
// circuits, it sweeps one generated arithmetic family across operand
// widths (rmbench -family mul -widths 4:64), measures how literals,
// mapped cost, and wall time grow, verifies every synthesized instance
// against its word-level spec (algebraic mode for the wide ones), and
// emits an rmscale/v1 artifact the CI gate diffs against a committed
// baseline with the same one-sided discipline as the rmbench/v1 gate.

// ScaleSchema identifies the scaling-report JSON layout.
const ScaleSchema = "rmscale/v1"

// Generated resolves a circuit name against the wordgen families
// (e.g. "mul16", "gfmul8") and wraps it as a bench Circuit. It
// complements ByName, which resolves the fixed Table 2 set.
func Generated(name string) (Circuit, *wordgen.Spec, error) {
	s, err := wordgen.ByName(name)
	if err != nil {
		return Circuit{}, nil, err
	}
	return Circuit{
		Name:  s.Name,
		In:    s.Net.NumPIs(),
		Out:   s.Net.NumPOs(),
		Arith: true,
		Note:  "generated",
		Build: func() *network.Network { return s.Net },
	}, s, nil
}

// Resolve returns the named circuit from the fixed Table 2 set or,
// failing that, from the generated families. The chaos harness accepts
// either namespace through this; rmbench -only takes Table 2 names
// only.
func Resolve(name string) (Circuit, bool) {
	if c, ok := ByName(name); ok {
		return c, true
	}
	c, _, err := Generated(name)
	return c, err == nil
}

// ScalePoint is one (family, width) measurement. The scale run uses
// deterministic caps only (nodes, cubes, steps — no wall clock), so its
// degradation count is machine-independent and gateable.
type ScalePoint struct {
	Family string `json:"family"`
	Width  int    `json:"width"`
	Name   string `json:"name"`
	In     int    `json:"in"`
	Out    int    `json:"out"`
	Costs
	// VerifyMode is the engine that confirmed the instance ("algebraic",
	// "bdd", "sim"), VerifyShards its parallel slice count, and
	// VerifyMonomials the algebraic peak (see verify.WordResult).
	VerifyMode      string `json:"verify_mode,omitempty"`
	VerifyShards    int    `json:"verify_shards,omitempty"`
	VerifyMonomials int    `json:"verify_monomials,omitempty"`

	// TimeMS is the synthesis wall time. The gate applies a generous
	// multiplicative tolerance plus a log-log slope check rather than a
	// direct comparison — absolute wall clock is machine noise.
	TimeMS float64 `json:"time_ms"`
	Basis  string  `json:"basis,omitempty"`
	Err    string  `json:"error,omitempty"`
}

// ScaleReport is the rmscale/v1 artifact.
type ScaleReport struct {
	Schema string       `json:"schema"`
	Points []ScalePoint `json:"points"`
}

// ScaleOptions configures a scaling sweep. Core.Workers bounds both the
// synthesis fan-out and the verification shards.
type ScaleOptions struct {
	Core core.Options
	// VerifyLimits caps the word-level check (its budget is separate
	// from the synthesis caps in Core).
	VerifyLimits budget.Limits
}

// DefaultScaleOptions uses deterministic resource caps only — node,
// cube, and step budgets, no wall-clock deadline — so the degradation
// points of a sweep are bit-reproducible across machines and the
// committed baseline stays meaningful in CI.
func DefaultScaleOptions() ScaleOptions {
	opt := ScaleOptions{Core: core.DefaultOptions()}
	opt.Core.MaxBDDNodes = 250_000
	opt.Core.MaxOFDDNodes = 250_000
	opt.Core.MaxSteps = 25_000_000
	opt.VerifyLimits = budget.Limits{BDDNodes: 2_000_000, Steps: 50_000_000}
	return opt
}

// RunScalePoint synthesizes one generated instance with the paper's
// flow under ctx, verifies it against its word-level spec, and maps it.
// There is no SIS baseline leg: the scaling gate compares against the
// committed curve, not against another flow.
func RunScalePoint(ctx context.Context, s *wordgen.Spec, opt ScaleOptions) ScalePoint {
	pt := ScalePoint{
		Family: s.Family, Width: s.Width, Name: s.Name,
		In: s.Net.NumPIs(), Out: s.Net.NumPOs(),
	}
	res, err := core.Synthesize(ctx, s.Net, opt.Core)
	if err != nil {
		pt.Err = "synthesize: " + err.Error()
		return pt
	}
	pt.OursLits = res.Stats.Lits
	pt.TimeMS = float64(res.Elapsed) / float64(time.Millisecond)
	pt.Degradations = len(res.Degradations)
	pt.Basis = res.Basis

	vr, err := verify.Word(res.Network, s, verify.WordOptions{
		Workers: opt.Core.Workers,
		Budget:  budget.New(ctx, opt.VerifyLimits),
	})
	if err != nil {
		pt.Err = "verify: " + err.Error()
		return pt
	}
	pt.Verified = vr.OK
	pt.VerifyMode = vr.Mode
	pt.VerifyShards = vr.Shards
	pt.VerifyMonomials = vr.Monomials
	if !vr.OK {
		pt.Err = "verify: " + vr.Mismatch.String()
		return pt
	}

	mapped, err := techmap.Map(res.Network, techmap.Library())
	if err != nil {
		pt.Err = "map: " + err.Error()
		return pt
	}
	pt.MapGates = mapped.Gates
	pt.MapLits = mapped.Lits
	return pt
}

// ParseWidths parses a width-sweep flag: "4:64" doubles from 4 to 64
// (4,8,16,32,64); "4,6,12" is an explicit list; "16" is a single width.
func ParseWidths(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("empty widths")
	}
	if lo, hi, ok := strings.Cut(s, ":"); ok {
		a, err1 := strconv.Atoi(lo)
		b, err2 := strconv.Atoi(hi)
		if err1 != nil || err2 != nil || a < 1 || b < a {
			return nil, fmt.Errorf("bad width range %q (want lo:hi, lo ≤ hi)", s)
		}
		var ws []int
		for w := a; w <= b; w *= 2 {
			ws = append(ws, w)
		}
		return ws, nil
	}
	var ws []int
	for _, f := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad width %q in %q", f, s)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// BuildScaleReport sorts the points into the canonical (family, width)
// order and stamps the schema.
func BuildScaleReport(points []ScalePoint) *ScaleReport {
	rep := &ScaleReport{Schema: ScaleSchema, Points: append([]ScalePoint(nil), points...)}
	sort.Slice(rep.Points, func(a, b int) bool {
		if rep.Points[a].Family != rep.Points[b].Family {
			return rep.Points[a].Family < rep.Points[b].Family
		}
		return rep.Points[a].Width < rep.Points[b].Width
	})
	return rep
}

// Wall-time gate tolerances: a point regresses only past a 4× factor
// plus a 250ms floor (absolute wall clock is machine noise), and a
// family's growth trend regresses when its log-log time-vs-width slope
// exceeds the baseline's by more than 0.75 — i.e. the flow turned
// superlinearly slower across the whole curve, not just one noisy
// sample.
const (
	scaleTimeFactor  = 4.0
	scaleTimeFloorMS = 250.0
	scaleSlopeMargin = 0.75
)

// CheckScale compares a current scaling report against the committed
// baseline. Each point gets Check's one-sided comparison (error,
// verification, the four costs) and, when its costs were compared, the
// wall-time tolerance. Baseline points of families absent from the
// current run are skipped, so `rmbench -family mul` gates the mul curve
// without demanding the others be re-measured.
func CheckScale(cur, base *ScaleReport) []Regression {
	curBy := make(map[string]ScalePoint, len(cur.Points))
	curFams := map[string]bool{}
	for _, p := range cur.Points {
		curBy[p.Name] = p
		curFams[p.Family] = true
	}
	var regs []Regression
	for _, b := range base.Points {
		if !curFams[b.Family] {
			continue
		}
		c, ok := curBy[b.Name]
		if !ok {
			regs = append(regs, missing(b.Name))
			continue
		}
		var compared bool
		regs, compared = checkEntry(regs, b.Name, c.Costs, b.Costs, c.Err, b.Err)
		if limit := scaleTimeFactor*b.TimeMS + scaleTimeFloorMS; compared && c.TimeMS > limit {
			regs = append(regs, Regression{b.Name, "time",
				fmt.Sprintf("synthesis took %.0fms > tolerance %.0fms (baseline %.0fms)", c.TimeMS, limit, b.TimeMS)})
		}
	}
	// Trend check per family: compare log-log slopes over the points
	// both reports measured.
	for fam := range curFams {
		cs, bs := famSlope(cur, fam), famSlope(base, fam)
		if !math.IsNaN(cs) && !math.IsNaN(bs) && cs > bs+scaleSlopeMargin {
			regs = append(regs, Regression{fam, "time-scaling",
				fmt.Sprintf("log-log time slope %.2f > baseline %.2f + %.2f margin", cs, bs, scaleSlopeMargin)})
		}
	}
	sort.Slice(regs, func(a, b int) bool {
		if regs[a].Circuit != regs[b].Circuit {
			return regs[a].Circuit < regs[b].Circuit
		}
		return regs[a].Kind < regs[b].Kind
	})
	return regs
}

// famSlope fits ln(time) against ln(width) for one family by least
// squares and returns the slope, or NaN with fewer than three clean
// points (too little signal to call a trend).
func famSlope(rep *ScaleReport, family string) float64 {
	var xs, ys []float64
	for _, p := range rep.Points {
		if p.Family != family || p.Err != "" || p.Width < 1 {
			continue
		}
		// +1ms flattens sub-millisecond noise at tiny widths.
		xs = append(xs, math.Log(float64(p.Width)))
		ys = append(ys, math.Log(p.TimeMS+1))
	}
	if len(xs) < 3 {
		return math.NaN()
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}
