package factor

import (
	"repro/internal/budget"
	"repro/internal/cube"
	"repro/internal/obs"
	"repro/internal/ofdd"
)

// Options control factorization.
type Options struct {
	// ApplyRules enables the Reduction rules (a)-(c) and OR factoring
	// rule (e) as expression rewrites after algebraic factorization.
	// The paper applies them iteratively until fixpoint.
	ApplyRules bool
	// Budget, when non-nil, meters the factoring recursion: each group
	// factorization and OFDD node visit counts a step, and exhaustion
	// unwinds with panic(*budget.Err) to be recovered by budget.Guard in
	// the caller (see package budget).
	Budget *budget.Budget
	// Obs, when non-nil, counts rule applications (reductions (a)-(c),
	// factorizations (d)/(e), rewrite passes, divisor-registry hits).
	// Nil disables collection at the cost of a nil check per probe.
	Obs *obs.Factor
}

// maxRulePasses bounds the rules' fixpoint iteration.
const maxRulePasses = 8

// rules applies the rewrite rules to e when the options enable them.
func (o Options) rules(e *Expr) *Expr {
	if o.ApplyRules {
		e = ApplyRules(e, maxRulePasses, o.Obs)
	}
	return e
}

func cubeExpr(c cube.Cube) *Expr {
	if c.IsOne() {
		return One()
	}
	lits := make([]*Expr, 0, c.Size())
	c.Vars.ForEach(func(v int) { lits = append(lits, Lit(v)) })
	return AndN(lits...)
}

// OFDDContext factors multiple functions over one OFDD manager with a
// shared node→expression memo, so OFDD nodes shared between outputs
// become shared subexpressions (and shared gates after emission).
type OFDDContext struct {
	M    *ofdd.Manager
	opt  Options
	memo map[ofdd.Ref]*Expr
}

// NewOFDDContext returns a factoring context over the manager.
func NewOFDDContext(m *ofdd.Manager, opt Options) *OFDDContext {
	return &OFDDContext{M: m, opt: opt, memo: make(map[ofdd.Ref]*Expr)}
}

// Factor implements Method 2 of Section 3 for one function: traverse the
// OFDD and build the initial factored network directly from the Davio
// expansions, sharing subexpressions for shared nodes; then apply the
// rules.
func (cx *OFDDContext) Factor(f ofdd.Ref) *Expr {
	var rec func(ofdd.Ref) *Expr
	rec = func(f ofdd.Ref) *Expr {
		if f == ofdd.Zero {
			return Zero()
		}
		if f == ofdd.One {
			return One()
		}
		if e, ok := cx.memo[f]; ok {
			return e
		}
		cx.opt.Budget.Step("factor")
		v := cx.M.TopVar(f)
		lo := rec(cx.M.Lo(f))
		hi := rec(cx.M.Hi(f))
		e := XorN(lo, AndN(Lit(v), hi))
		cx.memo[f] = e
		return e
	}
	return cx.opt.rules(rec(f))
}
