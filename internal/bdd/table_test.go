package bdd

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/budget"
	"repro/internal/cube"
	"repro/internal/obs"
)

// refManager is the map-backed manager the flat unique and computed
// tables replaced, kept as the reference they must match operation for
// operation: the same node numbering, the same counter and budget
// charges, and the same trips.
type refManager struct {
	numVars   int
	nodes     []node
	unique    map[node]Ref
	iteTab    map[[3]Ref]Ref
	vars      []Ref
	bud       *budget.Budget
	allocHook func(nodes int) *budget.Err
	stats     *obs.DD
}

func newRef(n int) *refManager {
	m := &refManager{
		numVars: n,
		unique:  make(map[node]Ref),
		iteTab:  make(map[[3]Ref]Ref),
	}
	term := int32(n)
	m.nodes = append(m.nodes, node{v: term}, node{v: term})
	m.vars = make([]Ref, n)
	for i := 0; i < n; i++ {
		m.vars[i] = m.mk(int32(i), Zero, One)
	}
	return m
}

func (m *refManager) mk(v int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	k := node{v: v, lo: lo, hi: hi}
	if r, ok := m.unique[k]; ok {
		m.stats.UniqueHit()
		return r
	}
	m.bud.CheckBDDNodes(len(m.nodes) + 1)
	if m.allocHook != nil {
		if e := m.allocHook(len(m.nodes) + 1); e != nil {
			panic(e)
		}
	}
	m.stats.UniqueMiss(len(m.nodes) + 1)
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, k)
	m.unique[k] = r
	return r
}

func (m *refManager) ITE(f, g, h Ref) Ref {
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
	k := [3]Ref{f, g, h}
	if r, ok := m.iteTab[k]; ok {
		m.stats.OpHit()
		return r
	}
	m.stats.OpMiss()
	m.bud.Step("bdd")
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
	m.iteTab[k] = r
	return r
}

func (m *refManager) cof(f Ref, v int32) (lo, hi Ref) {
	n := m.nodes[f]
	if n.v != v {
		return f, f
	}
	return n.lo, n.hi
}

func (m *refManager) Not(f Ref) Ref    { return m.ITE(f, Zero, One) }
func (m *refManager) And(f, g Ref) Ref { return m.ITE(f, g, Zero) }
func (m *refManager) Or(f, g Ref) Ref  { return m.ITE(f, One, g) }
func (m *refManager) Xor(f, g Ref) Ref { return m.ITE(f, m.Not(g), g) }

func (m *refManager) FromESOP(l *cube.List, polarity []bool) Ref {
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

// diffOp is one random operation, applied identically to both managers.
type diffOp struct {
	kind    int // 0 And, 1 Or, 2 Xor, 3 Not, 4 ITE, 5 FromESOP
	a, b, c int // operand positions in the shared result pool
	esop    *cube.List
	pol     []bool
}

func randomOp(rng *rand.Rand, n, pool int) diffOp {
	op := diffOp{kind: rng.Intn(6), a: rng.Intn(pool), b: rng.Intn(pool), c: rng.Intn(pool)}
	if op.kind == 5 {
		op.esop = cube.NewList(n)
		for i := 1 + rng.Intn(4); i > 0; i-- {
			c := cube.One(n)
			for v := 0; v < n; v++ {
				if rng.Intn(3) == 0 {
					c.Vars.Set(v)
				}
			}
			op.esop.Add(c)
		}
		if rng.Intn(2) == 0 {
			op.pol = make([]bool, n)
			for v := range op.pol {
				op.pol[v] = rng.Intn(2) == 0
			}
		}
	}
	return op
}

// opManager is what a diffOp calls: a Manager or a refManager.
type opManager interface {
	And(f, g Ref) Ref
	Or(f, g Ref) Ref
	Xor(f, g Ref) Ref
	Not(f Ref) Ref
	ITE(f, g, h Ref) Ref
	FromESOP(l *cube.List, polarity []bool) Ref
}

// run applies op to m, recovering a budget trip (a node cap or the
// alloc hook) as the returned error.
func (op diffOp) run(m opManager, pool []Ref) (r Ref, err error) {
	err = budget.Guard(func() {
		a, b, c := pool[op.a], pool[op.b], pool[op.c]
		switch op.kind {
		case 0:
			r = m.And(a, b)
		case 1:
			r = m.Or(a, b)
		case 2:
			r = m.Xor(a, b)
		case 3:
			r = m.Not(a)
		case 4:
			r = m.ITE(a, b, c)
		default:
			r = m.FromESOP(op.esop, op.pol)
		}
	})
	return r, err
}

// hookTrip is an alloc hook that fails the allocation reaching node
// count at, and records the count it failed.
type hookTrip struct {
	at, fired int
}

func (h *hookTrip) hook(nodes int) *budget.Err {
	if nodes != h.at {
		return nil
	}
	h.fired = nodes
	return &budget.Err{Phase: "bdd", Limit: "nodes", Max: int64(h.at - 1), Used: int64(nodes)}
}

// TestTablesMatchMapReference runs random And/Or/Xor/Not/ITE/FromESOP
// sequences over 2–40 variables on a Manager and on refManager, long
// enough for both flat tables to double several times, and after every
// operation asserts the same result, the same node array, the same
// obs.DD counters and the same budget steps. Half of the runs also set
// a node cap or an alloc hook, which must trip at the same operation
// with the same count on both sides; the runs go on after a trip, so a
// table left inconsistent by the unwinding would show too.
func TestTablesMatchMapReference(t *testing.T) {
	const maxNodes = 12_000
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(39)
		var lim budget.Limits
		var hm, hr *hookTrip
		switch seed % 4 {
		case 1:
			lim.BDDNodes = 500 + rng.Intn(3000)
		case 2:
			at := 500 + rng.Intn(3000)
			hm, hr = &hookTrip{at: at}, &hookTrip{at: at}
		}
		m, ref := New(n), newRef(n)
		bm, br := budget.New(context.Background(), lim), budget.New(context.Background(), lim)
		var dm, dr obs.DD
		m.SetBudget(bm)
		m.SetStats(&dm)
		ref.bud, ref.stats = br, &dr
		if hm != nil {
			m.SetAllocHook(hm.hook)
			ref.allocHook = hr.hook
		}
		pool := []Ref{Zero, One}
		for v := 0; v < n; v++ {
			pool = append(pool, m.Var(v))
		}
		trips := 0
		for i := 0; m.Size() < maxNodes && i < 4000; i++ {
			op := randomOp(rng, n, len(pool))
			got, gerr := op.run(m, pool)
			want, werr := op.run(ref, pool)
			if !reflect.DeepEqual(gerr, werr) {
				t.Fatalf("seed %d op %d (kind %d): trip %v, reference %v", seed, i, op.kind, gerr, werr)
			}
			if got != want {
				t.Fatalf("seed %d op %d (kind %d): ref %d, reference %d", seed, i, op.kind, got, want)
			}
			if m.Size() != len(ref.nodes) {
				t.Fatalf("seed %d op %d: Size %d, reference %d", seed, i, m.Size(), len(ref.nodes))
			}
			for r := Ref(0); int(r) < m.Size(); r++ {
				if w := ref.nodes[r]; m.TopVar(r) != int(w.v) || m.Lo(r) != w.lo || m.Hi(r) != w.hi {
					t.Fatalf("seed %d op %d: node %d = (%d, %d, %d), reference %+v",
						seed, i, r, m.TopVar(r), m.Lo(r), m.Hi(r), w)
				}
			}
			if g, w := dm.Snapshot(), dr.Snapshot(); g != w {
				t.Fatalf("seed %d op %d: counters %+v, reference %+v", seed, i, g, w)
			}
			if bm.Steps() != br.Steps() {
				t.Fatalf("seed %d op %d: %d budget steps, reference %d", seed, i, bm.Steps(), br.Steps())
			}
			if hm != nil && hm.fired != hr.fired {
				t.Fatalf("seed %d op %d: hook fired at %d, reference at %d", seed, i, hm.fired, hr.fired)
			}
			if gerr != nil {
				trips++
				continue
			}
			pool = append(pool, got)
		}
		if (lim.BDDNodes > 0 || hm != nil) && trips == 0 {
			t.Errorf("seed %d: the node cap or hook never tripped (%d nodes)", seed, m.Size())
		}
		if lim.BDDNodes == 0 && hm == nil && m.Size() < maxNodes {
			t.Errorf("seed %d: only %d nodes; the tables barely grew", seed, m.Size())
		}
	}
}
