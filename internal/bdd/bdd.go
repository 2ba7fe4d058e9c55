// Package bdd implements a reduced ordered binary decision diagram (ROBDD)
// manager in the style of Bryant [6] and the SIS 1.2 BDD package the paper
// builds on: hash-consed nodes, an ITE-based apply, satisfiability
// queries, SAT counting, and Minato-Morreale irredundant SOP extraction.
//
// Variable order is the natural index order 0..n-1 (the paper's OFDDs use a
// fixed order as well).
package bdd

import (
	"fmt"

	"repro/internal/budget"
	"repro/internal/cube"
	"repro/internal/obs"
	"repro/internal/sop"
)

// Ref identifies a BDD node within its manager. The constants Zero and One
// are the terminal nodes of every manager.
type Ref int32

// Terminal nodes.
const (
	Zero Ref = 0
	One  Ref = 1
)

type node struct {
	v      int32 // variable index; terminals use numVars
	lo, hi Ref
}

// iteEntry is one computed-table slot: ITE(f, g, h) = r. ITE returns
// before the table when f is a terminal, so no stored entry has
// f == Zero, and that marks an empty slot.
type iteEntry struct{ f, g, h, r Ref }

// initSlots is the initial slot count of both tables, a power of two.
// core, redund, sigcache and every Table 2 circuit build create their
// own managers, so a new one costs a few KB; the tables double as they
// fill.
const initSlots = 256

// Manager owns a forest of shared ROBDD nodes over a fixed number of
// variables.
//
// A Manager may carry a resource budget (SetBudget): node growth and ITE
// recursion are then checked against it, and exhaustion unwinds with
// panic(*budget.Err), which callers recover through budget.Guard at the
// phase boundary (see package budget).
//
// Both hash tables are flat power-of-two arrays with linear probing that
// double past a fixed load. The unique table holds node indices (0, a
// terminal, marks an empty slot) and reads its keys from nodes, so every
// occupied slot a probe passes costs a load from nodes; it doubles when
// the node count reaches half its slots, a power of two. Computed-table
// entries carry their keys, and that table doubles past three quarters
// full. It is lossless: no entry is ever evicted, so each distinct ITE
// call misses, and charges the budget one step, exactly once.
type Manager struct {
	numVars   int
	nodes     []node
	unique    []Ref
	ite       []iteEntry
	iteUsed   int   // filled computed-table slots
	vars      []Ref // cached single-variable BDDs
	bud       *budget.Budget
	allocHook func(nodes int) *budget.Err
	stats     *obs.DD
}

// New returns a manager over n variables (order = index order).
func New(n int) *Manager {
	m := &Manager{
		numVars: n,
		unique:  make([]Ref, initSlots),
		ite:     make([]iteEntry, initSlots),
	}
	term := int32(n)
	m.nodes = append(m.nodes, node{v: term}, node{v: term}) // Zero, One
	m.vars = make([]Ref, n)
	for i := 0; i < n; i++ {
		m.vars[i] = m.mk(int32(i), Zero, One)
	}
	return m
}

// SetBudget attaches a resource budget to the manager (nil detaches).
// While attached, node growth and ITE steps trip the budget when
// exhausted; the trip is recovered by budget.Guard in the caller.
func (m *Manager) SetBudget(b *budget.Budget) { m.bud = b }

// SetAllocHook installs a fault-injection probe on node allocation (nil
// removes it). The hook sees the node count the allocation would reach;
// a non-nil *budget.Err unwinds exactly like a budget trip, recovered
// by budget.Guard at the phase boundary. Used only by the deterministic
// chaos harness (internal/chaos); the disabled path costs one nil check
// per fresh node.
func (m *Manager) SetAllocHook(h func(nodes int) *budget.Err) { m.allocHook = h }

// SetStats attaches an observability counter group to the manager (nil
// detaches). While attached, unique-table and computed-table hits and
// misses are counted (see package obs); detached, every probe site is a
// nil check inside obs' nil-receiver methods.
func (m *Manager) SetStats(s *obs.DD) { m.stats = s }

// NumVars returns the number of variables of the manager.
func (m *Manager) NumVars() int { return m.numVars }

// Size returns the number of nodes allocated (including terminals).
func (m *Manager) Size() int { return len(m.nodes) }

// Var returns the BDD for the single variable v.
func (m *Manager) Var(v int) Ref { return m.vars[v] }

// IsConst reports whether f is a terminal node.
func (m *Manager) IsConst(f Ref) bool { return f == Zero || f == One }

// TopVar returns the top variable index of f, or numVars for terminals.
func (m *Manager) TopVar(f Ref) int { return int(m.nodes[f].v) }

// Lo returns the low (else, var=0) child of f.
func (m *Manager) Lo(f Ref) Ref { return m.nodes[f].lo }

// Hi returns the high (then, var=1) child of f.
func (m *Manager) Hi(f Ref) Ref { return m.nodes[f].hi }

// hash3 mixes three refs into a table hash; callers mask it to a slot.
func hash3(a, b, c Ref) int {
	h := (uint64(uint32(a))<<32 | uint64(uint32(b))) * 0x9E3779B97F4A7C15
	h ^= uint64(uint32(c)) * 0xC2B2AE3D27D4EB4F
	return int(h ^ h>>32)
}

func (m *Manager) mk(v int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	mask := len(m.unique) - 1
	i := hash3(lo, hi, Ref(v)) & mask
	for r := m.unique[i]; r != 0; r = m.unique[i] {
		if n := m.nodes[r]; n.lo == lo && n.hi == hi && n.v == v {
			m.stats.UniqueHit()
			return r
		}
		i = (i + 1) & mask
	}
	m.bud.CheckBDDNodes(len(m.nodes) + 1)
	if m.allocHook != nil {
		if e := m.allocHook(len(m.nodes) + 1); e != nil {
			panic(e)
		}
	}
	m.stats.UniqueMiss(len(m.nodes) + 1)
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, node{v: v, lo: lo, hi: hi})
	m.unique[i] = r
	if 2*len(m.nodes) >= len(m.unique) {
		m.growUnique()
	}
	return r
}

// growUnique doubles the unique table and re-enters every internal node.
func (m *Manager) growUnique() {
	m.unique = make([]Ref, 2*len(m.unique))
	mask := len(m.unique) - 1
	for r := 2; r < len(m.nodes); r++ {
		n := m.nodes[r]
		i := hash3(n.lo, n.hi, Ref(n.v)) & mask
		for m.unique[i] != 0 {
			i = (i + 1) & mask
		}
		m.unique[i] = Ref(r)
	}
}

// ITE computes if-then-else(f, g, h) = f·g + ¬f·h.
func (m *Manager) ITE(f, g, h Ref) Ref {
	// Terminal cases.
	switch {
	case f == One:
		return g
	case f == Zero:
		return h
	case g == h:
		return g
	case g == One && h == Zero:
		return f
	}
	mask := len(m.ite) - 1
	for i := hash3(f, g, h) & mask; m.ite[i].f != Zero; i = (i + 1) & mask {
		if e := &m.ite[i]; e.f == f && e.g == g && e.h == h {
			m.stats.OpHit()
			return e.r
		}
	}
	m.stats.OpMiss()
	m.bud.Step("bdd")
	// Split on the top variable of the three arguments.
	v := m.nodes[f].v
	if m.nodes[g].v < v {
		v = m.nodes[g].v
	}
	if m.nodes[h].v < v {
		v = m.nodes[h].v
	}
	f0, f1 := m.cof(f, v)
	g0, g1 := m.cof(g, v)
	h0, h1 := m.cof(h, v)
	lo := m.ITE(f0, g0, h0)
	hi := m.ITE(f1, g1, h1)
	r := m.mk(v, lo, hi)
	m.putITE(iteEntry{f, g, h, r})
	return r
}

// putITE records a computed-table entry whose key is absent. The
// recursion since the lookup may have filled or regrown the table, so
// the slot is probed afresh.
func (m *Manager) putITE(e iteEntry) {
	if 4*(m.iteUsed+1) > 3*len(m.ite) {
		old := m.ite
		m.ite = make([]iteEntry, 2*len(old))
		for _, o := range old {
			if o.f != Zero {
				m.placeITE(o)
			}
		}
	}
	m.placeITE(e)
	m.iteUsed++
}

// placeITE stores e in the first empty slot of its probe sequence.
func (m *Manager) placeITE(e iteEntry) {
	mask := len(m.ite) - 1
	i := hash3(e.f, e.g, e.h) & mask
	for m.ite[i].f != Zero {
		i = (i + 1) & mask
	}
	m.ite[i] = e
}

// cof returns the two cofactors of f with respect to variable v, assuming v
// is at or above f's top variable.
func (m *Manager) cof(f Ref, v int32) (lo, hi Ref) {
	n := m.nodes[f]
	if n.v != v {
		return f, f
	}
	return n.lo, n.hi
}

// Not returns the complement of f.
func (m *Manager) Not(f Ref) Ref { return m.ITE(f, Zero, One) }

// And returns f·g.
func (m *Manager) And(f, g Ref) Ref { return m.ITE(f, g, Zero) }

// Or returns f+g.
func (m *Manager) Or(f, g Ref) Ref { return m.ITE(f, One, g) }

// Xor returns f⊕g.
func (m *Manager) Xor(f, g Ref) Ref { return m.ITE(f, m.Not(g), g) }

// Support returns the set of variables f depends on.
func (m *Manager) Support(f Ref) cube.BitSet {
	s := cube.NewBitSet(m.numVars)
	seen := make(map[Ref]bool)
	var rec func(Ref)
	rec = func(f Ref) {
		if m.IsConst(f) || seen[f] {
			return
		}
		seen[f] = true
		s.Set(int(m.nodes[f].v))
		rec(m.nodes[f].lo)
		rec(m.nodes[f].hi)
	}
	rec(f)
	return s
}

// Eval evaluates f on an assignment bitset.
func (m *Manager) Eval(f Ref, assign cube.BitSet) bool {
	for !m.IsConst(f) {
		n := m.nodes[f]
		if assign.Has(int(n.v)) {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == One
}

// SatCount returns the number of satisfying assignments of f over all
// numVars variables, as a float64 (exact for < 2^53).
func (m *Manager) SatCount(f Ref) float64 {
	memo := make(map[Ref]float64)
	var rec func(Ref) float64
	rec = func(f Ref) float64 {
		if f == Zero {
			return 0
		}
		if f == One {
			return 1
		}
		if c, ok := memo[f]; ok {
			return c
		}
		n := m.nodes[f]
		lo := rec(n.lo) * pow2(int(m.nodes[n.lo].v)-int(n.v)-1)
		hi := rec(n.hi) * pow2(int(m.nodes[n.hi].v)-int(n.v)-1)
		c := lo + hi
		memo[f] = c
		return c
	}
	return rec(f) * pow2(int(m.nodes[f].v))
}

func pow2(k int) float64 {
	r := 1.0
	for i := 0; i < k; i++ {
		r *= 2
	}
	return r
}

// Density returns the fraction of assignments satisfying f (the signal
// probability of f under uniform independent inputs).
func (m *Manager) Density(f Ref) float64 {
	return m.SatCount(f) / pow2(m.numVars)
}

// AnySat returns one satisfying assignment of f, or ok=false if f is
// unsatisfiable. Variables not on the chosen path are left 0.
func (m *Manager) AnySat(f Ref) (assign cube.BitSet, ok bool) {
	if f == Zero {
		return nil, false
	}
	assign = cube.NewBitSet(m.numVars)
	for !m.IsConst(f) {
		n := m.nodes[f]
		if n.hi != Zero {
			assign.Set(int(n.v))
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return assign, true
}

// FromCover builds the BDD of a SOP cover. A contradictory term (x·x̄)
// is the constant-0 product, as sop evaluates it, and adds nothing.
func (m *Manager) FromCover(c *sop.Cover) Ref {
	f := Zero
	for _, t := range c.Terms {
		if t.Contradicts() {
			continue
		}
		p := One
		// AND literals from the bottom of the order up for linear growth.
		for v := m.numVars - 1; v >= 0; v-- {
			if t.Pos.Has(v) {
				p = m.mk(int32(v), Zero, p)
			} else if t.Neg.Has(v) {
				p = m.mk(int32(v), p, Zero)
			}
		}
		f = m.Or(f, p)
	}
	return f
}

// FromESOP builds the BDD of an ESOP cube list under a polarity vector:
// variable v in a cube denotes the literal x_v if polarity[v] is true and
// its complement otherwise. A nil polarity means all-positive.
func (m *Manager) FromESOP(l *cube.List, polarity []bool) Ref {
	f := Zero
	for _, c := range l.Cubes {
		p := One
		for v := m.numVars - 1; v >= 0; v-- {
			if !c.Has(v) {
				continue
			}
			if polarity == nil || polarity[v] {
				p = m.mk(int32(v), Zero, p)
			} else {
				p = m.mk(int32(v), p, Zero)
			}
		}
		f = m.Xor(f, p)
	}
	return f
}

// ISOP computes an irredundant sum-of-products cover of any function g with
// L ≤ g ≤ U using the Minato-Morreale procedure, returning the cover and
// the BDD of the exact function the cover denotes.
func (m *Manager) ISOP(L, U Ref) (*sop.Cover, Ref) {
	type key struct{ l, u Ref }
	covers := make(map[key]*sop.Cover)
	funcs := make(map[key]Ref)
	var rec func(L, U Ref) (*sop.Cover, Ref)
	rec = func(L, U Ref) (*sop.Cover, Ref) {
		if L == Zero {
			return sop.NewCover(m.numVars), Zero
		}
		if U == One {
			return sop.Universe(m.numVars), One
		}
		k := key{L, U}
		if c, ok := covers[k]; ok {
			return c, funcs[k]
		}
		v := m.nodes[L].v
		if m.nodes[U].v < v {
			v = m.nodes[U].v
		}
		L0, L1 := m.cof(L, v)
		U0, U1 := m.cof(U, v)
		// Cubes that must contain the negative literal of v.
		c0, f0 := rec(m.And(L0, m.Not(U1)), U0)
		// Cubes that must contain the positive literal of v.
		c1, f1 := rec(m.And(L1, m.Not(U0)), U1)
		// Remainder covered by cubes free of v.
		Ld := m.Or(m.And(L0, m.Not(f0)), m.And(L1, m.Not(f1)))
		Ud := m.And(U0, U1)
		cd, fd := rec(Ld, Ud)
		out := sop.NewCover(m.numVars)
		for _, t := range c0.Terms {
			nt := t.Clone()
			nt.SetNeg(int(v))
			out.Add(nt)
		}
		for _, t := range c1.Terms {
			nt := t.Clone()
			nt.SetPos(int(v))
			out.Add(nt)
		}
		for _, t := range cd.Terms {
			out.Add(t.Clone())
		}
		fv := m.Or(m.Or(m.mk(v, Zero, f1), m.mk(v, f0, Zero)), fd)
		covers[k] = out
		funcs[k] = fv
		return out, fv
	}
	return rec(L, U)
}

// ToCover returns an irredundant SOP cover exactly equal to f, or an
// error if the Minato-Morreale procedure produced an inexact cover
// (which would indicate a defect in ISOP, not bad input — but callers
// synthesizing untrusted functions must not die on it).
func (m *Manager) ToCover(f Ref) (*sop.Cover, error) {
	c, g := m.ISOP(f, f)
	if g != f {
		return nil, fmt.Errorf("bdd: ISOP produced inexact cover (%d != %d)", g, f)
	}
	return c, nil
}
