package bdd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cube"
	"repro/internal/sop"
)

// ttOf computes the truth table of f over n ≤ 6 variables.
func ttOf(m *Manager, f Ref, n int) uint64 {
	var tt uint64
	for a := 0; a < 1<<n; a++ {
		assign := cube.NewBitSet(n)
		for v := 0; v < n; v++ {
			if a&(1<<v) != 0 {
				assign.Set(v)
			}
		}
		if m.Eval(f, assign) {
			tt |= 1 << uint(a)
		}
	}
	return tt
}

func TestTerminalsAndVars(t *testing.T) {
	m := New(3)
	if !m.IsConst(Zero) || !m.IsConst(One) {
		t.Fatal("terminals not const")
	}
	x0 := m.Var(0)
	if m.TopVar(x0) != 0 || m.Lo(x0) != Zero || m.Hi(x0) != One {
		t.Error("Var(0) malformed")
	}
	if m.Not(m.Not(x0)) != x0 {
		t.Error("double negation not canonical")
	}
}

func TestBooleanOps(t *testing.T) {
	m := New(2)
	a, b := m.Var(0), m.Var(1)
	if got := ttOf(m, m.And(a, b), 2); got != 0b1000 {
		t.Errorf("AND tt = %04b", got)
	}
	if got := ttOf(m, m.Or(a, b), 2); got != 0b1110 {
		t.Errorf("OR tt = %04b", got)
	}
	if got := ttOf(m, m.Xor(a, b), 2); got != 0b0110 {
		t.Errorf("XOR tt = %04b", got)
	}
}

func TestCanonicity(t *testing.T) {
	m := New(4)
	// (a+b)(a+c) == a + bc as BDD refs.
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	lhs := m.And(m.Or(a, b), m.Or(a, c))
	rhs := m.Or(a, m.And(b, c))
	if lhs != rhs {
		t.Error("equivalent functions got different refs")
	}
	// De Morgan.
	if m.Not(m.And(a, b)) != m.Or(m.Not(a), m.Not(b)) {
		t.Error("De Morgan fails")
	}
}

func TestSupport(t *testing.T) {
	m := New(5)
	f := m.And(m.Var(1), m.Or(m.Var(3), m.Not(m.Var(4))))
	s := m.Support(f)
	want := []bool{false, true, false, true, true}
	for v, w := range want {
		if s.Has(v) != w {
			t.Errorf("support(%d) = %v, want %v", v, s.Has(v), w)
		}
	}
}

func TestSatCount(t *testing.T) {
	m := New(4)
	a, b := m.Var(0), m.Var(1)
	if got := m.SatCount(m.And(a, b)); got != 4 { // ab over 4 vars: 2^2
		t.Errorf("SatCount(ab) = %v, want 4", got)
	}
	if got := m.SatCount(One); got != 16 {
		t.Errorf("SatCount(1) = %v, want 16", got)
	}
	if got := m.SatCount(Zero); got != 0 {
		t.Errorf("SatCount(0) = %v, want 0", got)
	}
	if got := m.Density(m.Xor(a, b)); got != 0.5 {
		t.Errorf("Density(a^b) = %v, want 0.5", got)
	}
}

func TestAnySat(t *testing.T) {
	m := New(3)
	f := m.And(m.Var(0), m.Not(m.Var(2)))
	assign, ok := m.AnySat(f)
	if !ok {
		t.Fatal("satisfiable function reported unsat")
	}
	if !m.Eval(f, assign) {
		t.Error("AnySat returned non-satisfying assignment")
	}
	if _, ok := m.AnySat(Zero); ok {
		t.Error("Zero reported satisfiable")
	}
}

func TestFromCoverMatchesEval(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		c := sop.NewCover(n)
		for i := 0; i < 1+rng.Intn(6); i++ {
			tm := sop.NewTerm(n)
			for v := 0; v < n; v++ {
				switch rng.Intn(3) {
				case 0:
					tm.SetPos(v)
				case 1:
					tm.SetNeg(v)
				}
			}
			if rng.Intn(4) == 0 {
				// A contradictory term x·x̄ is the constant-0 product.
				v := rng.Intn(n)
				tm.Pos.Set(v)
				tm.Neg.Set(v)
			}
			c.Add(tm)
		}
		m := New(n)
		g := m.FromCover(c)
		for a := 0; a < 1<<n; a++ {
			assign := cube.NewBitSet(n)
			for v := 0; v < n; v++ {
				if a&(1<<v) != 0 {
					assign.Set(v)
				}
			}
			if m.Eval(g, assign) != c.Eval(assign) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFromESOPPolarity(t *testing.T) {
	// f = x̄0 ⊕ x̄0x1 with polarity (neg, pos): cubes {0}, {0,1}.
	l := cube.NewList(2)
	l.Add(cube.New(2, 0))
	l.Add(cube.New(2, 0, 1))
	m := New(2)
	f := m.FromESOP(l, []bool{false, true})
	// x̄0 ⊕ x̄0x1 = x̄0(1⊕x1) = x̄0x̄1: tt bit set only at a=00.
	if got := ttOf(m, f, 2); got != 0b0001 {
		t.Errorf("FromESOP tt = %04b, want 0001", got)
	}
}

func TestISOPExactAndIrredundant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		m := New(n)
		// Random function from random truth table.
		g := Zero
		for a := 0; a < 1<<n; a++ {
			if rng.Intn(2) == 1 {
				p := One
				for v := 0; v < n; v++ {
					if a&(1<<v) != 0 {
						p = m.And(p, m.Var(v))
					} else {
						p = m.And(p, m.Not(m.Var(v)))
					}
				}
				g = m.Or(g, p)
			}
		}
		c, err := m.ToCover(g)
		return err == nil && m.FromCover(c) == g
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestISOPSmallCover(t *testing.T) {
	// a + bc has a 2-term ISOP.
	m := New(3)
	g := m.Or(m.Var(0), m.And(m.Var(1), m.Var(2)))
	c, err := m.ToCover(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Terms) != 2 {
		t.Errorf("ISOP(a+bc) has %d terms, want 2: %s", len(c.Terms), c)
	}
}

func TestLargeVariableCount(t *testing.T) {
	// Sanity: 200-variable manager with a simple chain works.
	m := New(200)
	f := Zero
	for v := 0; v < 200; v += 2 {
		f = m.Xor(f, m.Var(v))
	}
	if m.IsConst(f) {
		t.Fatal("chain collapsed")
	}
	if got := m.Support(f).Count(); got != 100 {
		t.Errorf("support count = %d, want 100", got)
	}
	if m.Density(f) != 0.5 {
		t.Errorf("parity density = %v, want 0.5", m.Density(f))
	}
}
