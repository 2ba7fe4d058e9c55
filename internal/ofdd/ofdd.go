// Package ofdd implements ordered functional decision diagrams (OFDDs) as
// described in Section 2 of the paper and in Kebschull/Rosenstiel [11][12]:
// a hash-consed DAG in which every node applies a Davio expansion to its
// variable. A manager carries a polarity vector; variable v uses the
// positive Davio expansion  f = f_lo ⊕ x_v·f_hi  when its polarity is
// positive and the negative Davio expansion  f = f_lo ⊕ x̄_v·f_hi  when
// negative. The reduction rule deletes nodes whose hi child is the Zero
// terminal, which makes the diagram canonical for a fixed order and
// polarity vector.
//
// The paths of the OFDD are exactly the cubes of the function's FPRM form
// for that polarity vector, which is how the paper derives FPRM cube sets.
package ofdd

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/bdd"
	"repro/internal/budget"
	"repro/internal/cube"
	"repro/internal/obs"
)

// Ref identifies an OFDD node within its manager.
type Ref int32

// Terminal nodes of every manager.
const (
	Zero Ref = 0
	One  Ref = 1
)

type node struct {
	v      int32
	lo, hi Ref
}

type uniqueKey struct {
	v      int32
	lo, hi Ref
}

type opKey struct{ f, g Ref }

// Manager owns a forest of OFDD nodes over a fixed variable order and
// polarity vector.
//
// A Manager may carry a resource budget (SetBudget): node growth and XOR
// recursion are then checked against it, and exhaustion unwinds with
// panic(*budget.Err), recovered by budget.Guard at the phase boundary
// (see package budget). OFDDs can be exponentially larger than the BDD
// of the same function, so this is the main blowup guard of the flow.
type Manager struct {
	numVars   int
	polarity  []bool // true = positive Davio for that variable
	nodes     []node
	unique    map[uniqueKey]Ref
	xorTab    map[opKey]Ref
	counts    map[Ref]int64 // cube-count memo
	bud       *budget.Budget
	allocHook func(nodes int) *budget.Err
	stats     *obs.DD
}

// New returns an OFDD manager over n variables with the given polarity
// vector (entry v true = positive polarity). A nil polarity means
// all-positive (the PPRM case).
func New(n int, polarity []bool) *Manager {
	if polarity == nil {
		polarity = make([]bool, n)
		for i := range polarity {
			polarity[i] = true
		}
	}
	if len(polarity) != n {
		// Programmer invariant: polarity vectors are constructed by the
		// caller with one entry per variable; a mismatch is a bug at the
		// call site, not a data condition.
		panic(fmt.Sprintf("ofdd: polarity vector length %d != %d vars", len(polarity), n))
	}
	m := &Manager{
		numVars:  n,
		polarity: append([]bool(nil), polarity...),
		unique:   make(map[uniqueKey]Ref),
		xorTab:   make(map[opKey]Ref),
		counts:   make(map[Ref]int64),
	}
	term := int32(n)
	m.nodes = append(m.nodes, node{v: term}, node{v: term})
	return m
}

// SetBudget attaches a resource budget to the manager (nil detaches).
// While attached, node growth and XOR steps trip the budget when
// exhausted; the trip is recovered by budget.Guard in the caller.
func (m *Manager) SetBudget(b *budget.Budget) { m.bud = b }

// SetAllocHook installs a fault-injection probe on node allocation (nil
// removes it). The hook sees the node count the allocation would reach;
// a non-nil *budget.Err unwinds exactly like a budget trip, recovered
// by budget.Guard at the phase boundary. Managers are per-output, so a
// hook's own counter is deterministic regardless of how many workers
// the derivation fan-out runs with. Used only by the deterministic
// chaos harness (internal/chaos); the disabled path costs one nil check
// per fresh node.
func (m *Manager) SetAllocHook(h func(nodes int) *budget.Err) { m.allocHook = h }

// SetStats attaches an observability counter group (nil detaches).
// Managers are per-output, so each manager's counts are deterministic;
// all managers of a run share one group, whose totals are therefore
// deterministic at any worker count (see package obs).
func (m *Manager) SetStats(s *obs.DD) { m.stats = s }

// NumVars returns the number of variables.
func (m *Manager) NumVars() int { return m.numVars }

// Polarity returns the manager's polarity vector (shared; do not modify).
func (m *Manager) Polarity() []bool { return m.polarity }

// Size returns the number of allocated nodes including terminals.
func (m *Manager) Size() int { return len(m.nodes) }

// IsConst reports whether f is a terminal.
func (m *Manager) IsConst(f Ref) bool { return f == Zero || f == One }

// TopVar returns the variable index of f's top node (numVars for
// terminals).
func (m *Manager) TopVar(f Ref) int { return int(m.nodes[f].v) }

// Lo returns the Davio "constant" child: the subfunction present whether or
// not the literal is asserted.
func (m *Manager) Lo(f Ref) Ref { return m.nodes[f].lo }

// Hi returns the Davio "difference" child: the subfunction multiplied by
// the literal.
func (m *Manager) Hi(f Ref) Ref { return m.nodes[f].hi }

func (m *Manager) mk(v int32, lo, hi Ref) Ref {
	if hi == Zero {
		return lo // Davio reduction rule
	}
	k := uniqueKey{v, lo, hi}
	if r, ok := m.unique[k]; ok {
		m.stats.UniqueHit()
		return r
	}
	m.bud.CheckOFDDNodes(len(m.nodes) + 1)
	if m.allocHook != nil {
		if e := m.allocHook(len(m.nodes) + 1); e != nil {
			panic(e)
		}
	}
	m.stats.UniqueMiss(len(m.nodes) + 1)
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, node{v: v, lo: lo, hi: hi})
	m.unique[k] = r
	return r
}

// Lit returns the OFDD of variable v's literal in the manager's polarity
// (x_v for positive polarity, x̄_v for negative).
func (m *Manager) Lit(v int) Ref { return m.mk(int32(v), Zero, One) }

// Xor returns f ⊕ g.
func (m *Manager) Xor(f, g Ref) Ref {
	switch {
	case f == Zero:
		return g
	case g == Zero:
		return f
	case f == g:
		return Zero
	}
	if f > g {
		f, g = g, f
	}
	k := opKey{f, g}
	if r, ok := m.xorTab[k]; ok {
		m.stats.OpHit()
		return r
	}
	m.stats.OpMiss()
	m.bud.Step("ofdd")
	v := m.nodes[f].v
	if m.nodes[g].v < v {
		v = m.nodes[g].v
	}
	f0, f1 := m.cof(f, v)
	g0, g1 := m.cof(g, v)
	r := m.mk(v, m.Xor(f0, g0), m.Xor(f1, g1))
	m.xorTab[k] = r
	return r
}

func (m *Manager) cof(f Ref, v int32) (lo, hi Ref) {
	n := m.nodes[f]
	if n.v != v {
		return f, Zero // missing node: difference part is 0
	}
	return n.lo, n.hi
}

// FromCube returns the OFDD of a single FPRM cube: the product of the
// listed variables' literals (in the manager's polarities). The empty cube
// is the constant One.
func (m *Manager) FromCube(c cube.Cube) Ref {
	f := One
	vars := c.Vars.Elements()
	for i := len(vars) - 1; i >= 0; i-- {
		f = m.mk(int32(vars[i]), Zero, f)
	}
	return f
}

// FromCubes returns the OFDD of an FPRM cube list (its XOR-sum).
func (m *Manager) FromCubes(l *cube.List) Ref {
	f := Zero
	for _, c := range l.Cubes {
		f = m.Xor(f, m.FromCube(c))
	}
	return f
}

// FromBDD converts a ROBDD into this manager's OFDD by recursively
// applying the Davio expansion selected by each variable's polarity:
// positive:  f = f₀ ⊕ x·(f₀⊕f₁);  negative:  f = f₁ ⊕ x̄·(f₀⊕f₁).
// Growth is bounded only by the manager's budget, if one is attached.
func (m *Manager) FromBDD(bm *bdd.Manager, f bdd.Ref) Ref {
	r, _ := m.fromBDD(bm, f, 0)
	return r
}

// FromBDDBounded is FromBDD with a node cap: functional decision
// diagrams can be exponentially larger than the BDD of the same function
// (long OR chains are the classic case), and ok=false reports that the
// manager grew past maxNodes so the caller can fall back.
func (m *Manager) FromBDDBounded(bm *bdd.Manager, f bdd.Ref, maxNodes int) (Ref, bool) {
	return m.fromBDD(bm, f, maxNodes)
}

// fromBDD implements FromBDD/FromBDDBounded; maxNodes ≤ 0 means uncapped
// (budget checks in mk still apply).
func (m *Manager) fromBDD(bm *bdd.Manager, f bdd.Ref, maxNodes int) (Ref, bool) {
	if bm.NumVars() != m.numVars {
		// Programmer invariant: core always builds the OFDD manager over
		// the same variable universe as the BDD manager it converts from.
		panic("ofdd: BDD manager variable count mismatch")
	}
	memo := make(map[bdd.Ref]Ref)
	overflow := false
	var rec func(bdd.Ref) Ref
	rec = func(f bdd.Ref) Ref {
		if overflow {
			return Zero
		}
		if f == bdd.Zero {
			return Zero
		}
		if f == bdd.One {
			return One
		}
		if r, ok := memo[f]; ok {
			return r
		}
		if maxNodes > 0 && len(m.nodes) > maxNodes {
			overflow = true
			return Zero
		}
		m.bud.Step("ofdd")
		v := bm.TopVar(f)
		lo := rec(bm.Lo(f))
		hi := rec(bm.Hi(f))
		diff := m.Xor(lo, hi)
		var r Ref
		if m.polarity[v] {
			r = m.mk(int32(v), lo, diff)
		} else {
			r = m.mk(int32(v), hi, diff)
		}
		memo[f] = r
		return r
	}
	r := rec(f)
	if overflow {
		return Zero, false
	}
	return r, true
}

// ToBDD converts f back into a ROBDD (literal polarity applied), useful
// for verification.
func (m *Manager) ToBDD(bm *bdd.Manager) func(Ref) bdd.Ref {
	memo := make(map[Ref]bdd.Ref)
	var rec func(Ref) bdd.Ref
	rec = func(f Ref) bdd.Ref {
		if f == Zero {
			return bdd.Zero
		}
		if f == One {
			return bdd.One
		}
		if r, ok := memo[f]; ok {
			return r
		}
		n := m.nodes[f]
		lit := bm.Var(int(n.v))
		if !m.polarity[n.v] {
			lit = bm.Not(lit)
		}
		r := bm.Xor(rec(n.lo), bm.And(lit, rec(n.hi)))
		memo[f] = r
		return r
	}
	return rec
}

// MaxCubeCount is the ceiling at which CubeCount saturates. No form near
// it can be materialized, and ratios of counts this large decide
// nothing, while exact counts would overflow int64 on wide supports (a
// 64-input OR has 2⁶⁴−1 cubes).
const MaxCubeCount = int64(1) << 40

// CubeCount returns the number of FPRM cubes of f (number of paths to the
// One terminal), saturating at MaxCubeCount, without materializing them.
func (m *Manager) CubeCount(f Ref) int64 {
	if f == Zero {
		return 0
	}
	if f == One {
		return 1
	}
	if c, ok := m.counts[f]; ok {
		return c
	}
	n := m.nodes[f]
	c := min(m.CubeCount(n.lo)+m.CubeCount(n.hi), MaxCubeCount)
	m.counts[f] = c
	return c
}

// Cubes extracts the FPRM cube list of f. Cubes contain variable indices;
// the polarity vector assigns each its literal. The limit caps the number
// of cubes extracted (≤0 = unlimited); extraction returns an error past
// the cap to catch runaway expansions before they materialize, and so
// that no truncated list passes for the exact one.
func (m *Manager) Cubes(f Ref, limit int) (*cube.List, error) {
	if limit > 0 {
		if c := m.CubeCount(f); c > int64(limit) {
			return nil, fmt.Errorf("ofdd: %d cubes exceeds limit %d", c, limit)
		}
	}
	return m.CubesSample(f, math.MaxInt), nil
}

// CubesSample extracts at most limit cubes of f (the first ones in
// depth-first order, lo before hi) and returns them sorted, without
// failing when the full set is larger. Used to build pattern sets for
// functions whose FPRM forms are too large to materialize.
func (m *Manager) CubesSample(f Ref, limit int) *cube.List {
	out := cube.NewList(m.numVars)
	path := cube.NewBitSet(m.numVars)
	var rec func(Ref)
	rec = func(f Ref) {
		if f == Zero || out.Len() >= limit {
			return
		}
		if f == One {
			out.Add(cube.Cube{Vars: path.Clone()})
			return
		}
		n := m.nodes[f]
		rec(n.lo)
		path.Set(int(n.v))
		rec(n.hi)
		path.Clear(int(n.v))
	}
	rec(f)
	out.Sort()
	return out
}

// Eval evaluates f on an assignment of the underlying variables (bit v set
// means x_v = 1; polarity is applied internally).
func (m *Manager) Eval(f Ref, assign cube.BitSet) bool {
	var rec func(Ref) bool
	rec = func(f Ref) bool {
		if f == Zero {
			return false
		}
		if f == One {
			return true
		}
		n := m.nodes[f]
		v := int(n.v)
		lit := assign.Has(v) == m.polarity[v]
		val := rec(n.lo)
		if lit && rec(n.hi) {
			val = !val
		}
		return val
	}
	return rec(f)
}

// Dump renders the DAG rooted at f, one node per line, children before
// parents, for debugging and for reproducing Figure 1 of the paper.
func (m *Manager) Dump(f Ref) string {
	var b strings.Builder
	seen := make(map[Ref]bool)
	var order []Ref
	var rec func(Ref)
	rec = func(f Ref) {
		if m.IsConst(f) || seen[f] {
			return
		}
		seen[f] = true
		rec(m.nodes[f].lo)
		rec(m.nodes[f].hi)
		order = append(order, f)
	}
	rec(f)
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	name := func(r Ref) string {
		switch r {
		case Zero:
			return "0"
		case One:
			return "1"
		}
		return fmt.Sprintf("n%d", r)
	}
	for _, r := range order {
		n := m.nodes[r]
		pol := "+"
		if !m.polarity[n.v] {
			pol = "-"
		}
		fmt.Fprintf(&b, "%s: x%d(%s) lo=%s hi=%s\n", name(r), n.v, pol, name(n.lo), name(n.hi))
	}
	fmt.Fprintf(&b, "root=%s\n", name(f))
	return b.String()
}
