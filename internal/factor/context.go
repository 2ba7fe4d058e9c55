package factor

import (
	"sort"

	"repro/internal/cube"
)

// Context carries factoring state shared across the outputs of a
// multi-output function: a memo of factored sub-ESOPs (same cube list ⇒
// same expression, hence shared gates at emission) and a registry of
// factored subfunctions used as multi-cube divisors. The registry is what
// lets the flow discover, e.g., that an adder's carry c_{k} divides both
// s_{k+1} and c_{k+1} — the sharing the paper otherwise obtains with SIS
// resub.
type Context struct {
	opt      Options
	memo     map[string]*Expr
	registry []registryEntry
}

type registryEntry struct {
	list *cube.List
	expr *Expr
}

// registryCap bounds how many subfunctions are kept as divisor candidates.
const registryCap = 256

// maxDivisorCubes bounds divisor size; larger divisors rarely divide
// anything and cost O(|F|·|D|) per attempt.
const maxDivisorCubes = 64

// NewContext returns a fresh factoring context.
func NewContext(opt Options) *Context {
	return &Context{opt: opt, memo: make(map[string]*Expr)}
}

// Factor implements Method 1 of Section 3 for one output: factor the
// FPRM cube list directly. Steps: (2) split cubes into groups with
// disjoint support, (3/4) factor each group recursively by dividing out
// maximal common cubes (rule d), (5) join the group subnetworks by XOR.
// The join is one n-ary XOR node; the Emitter builds it as the balanced
// binary tree Step 5 prescribes. Reduction rules are applied when
// enabled. Subfunctions already factored for previous outputs through
// this context are reused.
func (cx *Context) Factor(l *cube.List) *Expr {
	return cx.opt.rules(cx.factorSub(l))
}

// factorSub splits into disjoint-support groups (Step 2), factors each
// (memoized), and joins them with one n-ary XOR (Step 5, balanced at
// emission).
func (cx *Context) factorSub(l *cube.List) *Expr {
	if l.IsZero() {
		return Zero()
	}
	groups := l.DisjointSupportGroups()
	exprs := make([]*Expr, len(groups))
	for i, g := range groups {
		exprs[i] = cx.factorGroup(g)
	}
	return XorN(exprs...)
}

// factorGroup factors one support-connected cube group: first by trying
// the registered multi-cube divisors (cross-output reuse), then by the
// greedy maximal-common-cube division of rule (d).
func (cx *Context) factorGroup(l *cube.List) *Expr {
	switch l.Len() {
	case 0:
		return Zero()
	case 1:
		return cubeExpr(l.Cubes[0])
	}
	key := l.Key()
	if e, ok := cx.memo[key]; ok {
		return e
	}
	cx.opt.Budget.Step("factor")
	e := cx.opt.rules(cx.factorGroupUncached(l))
	cx.memo[key] = e
	if len(cx.registry) < registryCap && l.Len() >= 2 && l.Len() <= maxDivisorCubes {
		cx.registry = append(cx.registry, registryEntry{list: l.Clone(), expr: e})
	}
	return e
}

func (cx *Context) factorGroupUncached(l *cube.List) *Expr {
	// Try registered divisors, best coverage first.
	var bestQ, bestR *cube.List
	var bestExpr *Expr
	var bestList *cube.List
	bestCover := 0
	consider := func(d *cube.List, e *Expr) {
		if d.Len() >= l.Len() || !d.Support().SubsetOf(l.Support()) {
			return
		}
		q, r := l.DivideList(d)
		if q.Len() == 0 {
			return
		}
		cover := d.Len() * q.Len()
		if cover > bestCover {
			bestCover, bestExpr, bestList, bestQ, bestR = cover, e, d, q, r
		}
	}
	for i := range cx.registry {
		consider(cx.registry[i].list, cx.registry[i].expr)
	}
	// Pair-XOR divisors (x_i ⊕ x_j) over the most frequent literals: the
	// classic decomposition of symmetric functions and of adder carries
	// (ab ⊕ ac ⊕ bc = ab ⊕ c(a⊕b)).
	counts := l.LiteralCounts()
	type lc struct{ v, c int }
	var tops []lc
	for v, c := range counts {
		if c >= 2 {
			tops = append(tops, lc{v, c})
		}
	}
	sort.Slice(tops, func(a, b int) bool {
		if tops[a].c != tops[b].c {
			return tops[a].c > tops[b].c
		}
		return tops[a].v < tops[b].v
	})
	if len(tops) > 8 {
		tops = tops[:8]
	}
	for i := 0; i < len(tops); i++ {
		for j := i + 1; j < len(tops); j++ {
			d := cube.NewList(l.NumVars)
			d.Add(cube.New(l.NumVars, tops[i].v))
			d.Add(cube.New(l.NumVars, tops[j].v))
			consider(d, XorN(Lit(tops[i].v), Lit(tops[j].v)))
		}
	}
	if bestExpr != nil && bestCover >= 4 {
		cx.opt.Obs.DivisorHit()
		if len(cx.registry) < registryCap {
			cx.registry = append(cx.registry, registryEntry{list: bestList.Clone(), expr: bestExpr})
		}
		return XorN(AndN(bestExpr, cx.factorSub(bestQ)), cx.factorSub(bestR))
	}
	bestV, bestC := -1, 1
	for v, c := range counts {
		if c > bestC {
			bestV, bestC = v, c
		}
	}
	if bestV < 0 {
		// No variable shared by two cubes: XOR the cubes directly.
		exprs := make([]*Expr, l.Len())
		for i, c := range l.Cubes {
			exprs[i] = cubeExpr(c)
		}
		return XorN(exprs...)
	}
	// Widen the divisor: intersect all cubes containing bestV (rule d).
	divisor := cube.Cube{}
	for _, c := range l.Cubes {
		if c.Has(bestV) {
			if divisor.Vars == nil {
				divisor = c.Clone()
			} else {
				divisor.Vars.IntersectWith(c.Vars)
			}
		}
	}
	q, r := l.DivideCube(divisor)
	return XorN(AndN(cubeExpr(divisor), cx.factorSub(q)), cx.factorSub(r))
}
