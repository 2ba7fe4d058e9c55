// Package arbiter implements the per-cone basis predictor of the
// combined synthesis flow: given the spec BDD of one output cone, it
// decides whether the cone wants the GF(2) AND/XOR flow (the paper's
// FPRM pipeline), the AND/OR SOP flow (the SIS-style baseline), or — when
// the structure is ambiguous — both, each run to completion under the
// run's budget, keeping the better verified result per cone.
//
// The paper's Table 2 shows the split the predictor models: FPRM wins on
// arithmetic (XOR-rich) cones, SOP wins on random/control logic, and
// Kushch's per-block basis selection argues the choice belongs to the
// block, not the tool. The features are deliberately cheap and
// read-only: the predictor walks the already-built spec BDD and a small
// bounded PPRM build, never mutating the shared BDD manager, so the
// predict phase adds no cross-output coupling and its decisions are
// bit-identical at any worker count.
package arbiter

import (
	"fmt"

	"repro/internal/bdd"
	"repro/internal/ofdd"
)

// Decision is the predictor's verdict for one cone.
type Decision int

const (
	// Xor routes the cone to the GF(2) FPRM flow only.
	Xor Decision = iota
	// Sop routes the cone to the SOP baseline flow only.
	Sop
	// Hedge runs both flows and keeps the better verified result.
	Hedge
)

// String returns the lower-case decision name used in reports.
func (d Decision) String() string {
	switch d {
	case Xor:
		return "xor"
	case Sop:
		return "sop"
	case Hedge:
		return "hedge"
	}
	return fmt.Sprintf("decision(%d)", int(d))
}

// Features are the structural measurements the decision is made from.
// All of them are deterministic functions of the cone BDD alone.
type Features struct {
	Support    int     // cone support size (variables the function depends on)
	Nodes      int     // cone BDD node count (terminals excluded)
	XorDensity float64 // fraction of cone nodes whose cofactors are structural complements
	PPRMCubes  int64   // cube count of the positive-polarity Reed-Muller form, saturating at ofdd.MaxCubeCount; -1 when the bounded build overflowed
	SOPPaths   int64   // BDD paths to the One terminal (a disjoint SOP cube count), saturating at ofdd.MaxCubeCount
}

// Decision thresholds. They are conservative: a sure verdict (Xor/Sop)
// skips the other arm entirely, so it only fires on strong structural
// evidence; everything ambiguous hedges.
const (
	// xorSure: density of complement-cofactor nodes at or above which
	// the cone is XOR-dominated (a pure parity cone has density 1).
	xorSure = 0.60
	// sopSure: density at or below which the cone has essentially no
	// XOR decision structure.
	sopSure = 0.05
	// ratioXor: PPRMCubes ≤ ratioXor·SOPPaths counts as GF(2)-friendly
	// (the Reed-Muller form is no bigger than the disjoint SOP).
	ratioXor = 1.5
	// ratioSop: PPRMCubes ≥ ratioSop·SOPPaths counts as SOP-friendly.
	ratioSop = 4.0
	// ofddNodeBound caps the bounded PPRM build; past it PPRMCubes is
	// reported as -1 (the GF(2) canonical form is already blowing up).
	ofddNodeBound = 4096
)

// Prediction is the predictor's full output for one cone: the verdict,
// the features it was derived from, and a deterministic one-line reason
// for reports.
type Prediction struct {
	Decision Decision
	Features Features
	Why      string
}

// Compute measures the features of cone f. bm is only read.
func Compute(bm *bdd.Manager, f bdd.Ref) Features {
	var ft Features
	ft.Support = bm.Support(f).Count()
	ft.Nodes, ft.XorDensity = shape(bm, f)
	ft.SOPPaths = onePaths(bm, f)
	om := ofdd.New(bm.NumVars(), nil) // nil polarity = all-positive = PPRM
	if r, ok := om.FromBDDBounded(bm, f, ofddNodeBound); ok {
		ft.PPRMCubes = om.CubeCount(r)
	} else {
		ft.PPRMCubes = -1
	}
	return ft
}

// Predict measures cone f and applies the thresholds.
func Predict(bm *bdd.Manager, f bdd.Ref) Prediction {
	ft := Compute(bm, f)
	d, why := decide(ft)
	return Prediction{Decision: d, Features: ft, Why: why}
}

func decide(ft Features) (Decision, string) {
	if ft.Nodes == 0 {
		return Xor, "constant cone"
	}
	if ft.Support <= 2 {
		return Xor, fmt.Sprintf("trivial cone (support %d)", ft.Support)
	}
	if ft.PPRMCubes < 0 {
		if ft.XorDensity <= sopSure {
			return Sop, fmt.Sprintf("pprm overflow, xor density %.2f", ft.XorDensity)
		}
		return Hedge, fmt.Sprintf("pprm overflow, xor density %.2f", ft.XorDensity)
	}
	pprm, paths := float64(ft.PPRMCubes), float64(ft.SOPPaths)
	if ft.XorDensity >= xorSure && pprm <= ratioXor*paths {
		return Xor, fmt.Sprintf("xor density %.2f, pprm/sop %d/%d", ft.XorDensity, ft.PPRMCubes, ft.SOPPaths)
	}
	if ft.XorDensity <= sopSure && pprm >= ratioSop*paths {
		return Sop, fmt.Sprintf("xor density %.2f, pprm/sop %d/%d", ft.XorDensity, ft.PPRMCubes, ft.SOPPaths)
	}
	return Hedge, fmt.Sprintf("xor density %.2f, pprm/sop %d/%d", ft.XorDensity, ft.PPRMCubes, ft.SOPPaths)
}

// onePaths counts BDD paths from f to the One terminal, saturating at
// ofdd.MaxCubeCount: each such path is one cube of a disjoint SOP cover
// of f.
func onePaths(bm *bdd.Manager, f bdd.Ref) int64 {
	memo := map[bdd.Ref]int64{}
	var rec func(bdd.Ref) int64
	rec = func(f bdd.Ref) int64 {
		if f == bdd.Zero {
			return 0
		}
		if f == bdd.One {
			return 1
		}
		if c, ok := memo[f]; ok {
			return c
		}
		c := min(rec(bm.Lo(f))+rec(bm.Hi(f)), ofdd.MaxCubeCount)
		memo[f] = c
		return c
	}
	return rec(f)
}

// shape walks f's cone once and returns its internal node count and
// XOR density: the fraction of cone nodes whose two cofactors are
// structural complements of each other — the signature of an XOR
// decision (v ? g : ḡ means the node computes v ⊕ ḡ). A pure parity
// cone has density 1; AND/OR-dominated cones sit near 0. Literal nodes
// (both cofactors constant) are excluded from both sides of the ratio:
// x ? 1 : 0 trivially has complement cofactors, and counting it would
// credit every cone's bottom literals with XOR structure they don't
// have. The check is a read-only pairwise walk: it never calls Not
// (which would grow the shared manager and perturb its counters).
func shape(bm *bdd.Manager, f bdd.Ref) (nodes int, density float64) {
	comp := newCompMemo(bm)
	xor, inner := 0, 0
	seen := map[bdd.Ref]bool{}
	var rec func(bdd.Ref)
	rec = func(f bdd.Ref) {
		if bm.IsConst(f) || seen[f] {
			return
		}
		seen[f] = true
		lo, hi := bm.Lo(f), bm.Hi(f)
		if !bm.IsConst(lo) || !bm.IsConst(hi) {
			inner++
			if comp.complements(lo, hi) {
				xor++
			}
		}
		rec(lo)
		rec(hi)
	}
	rec(f)
	if inner == 0 {
		return len(seen), 0
	}
	return len(seen), float64(xor) / float64(inner)
}

type compMemo struct {
	bm   *bdd.Manager
	memo map[[2]bdd.Ref]bool
}

func newCompMemo(bm *bdd.Manager) *compMemo {
	return &compMemo{bm: bm, memo: map[[2]bdd.Ref]bool{}}
}

// complements reports whether g computes ¬f, by structural recursion
// (the manager stores no complement edges, so ¬f may not exist as a
// node; the pairwise descent answers without materializing it).
func (c *compMemo) complements(f, g bdd.Ref) bool {
	if f == bdd.Zero {
		return g == bdd.One
	}
	if f == bdd.One {
		return g == bdd.Zero
	}
	if c.bm.IsConst(g) {
		return false
	}
	key := [2]bdd.Ref{f, g}
	if v, ok := c.memo[key]; ok {
		return v
	}
	// Reduced ordered BDDs: complements share the variable profile, so
	// the top variables must match level by level.
	v := c.bm.TopVar(f) == c.bm.TopVar(g) &&
		c.complements(c.bm.Lo(f), c.bm.Lo(g)) &&
		c.complements(c.bm.Hi(f), c.bm.Hi(g))
	c.memo[key] = v
	return v
}
