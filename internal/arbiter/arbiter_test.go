package arbiter

import (
	"testing"

	"repro/internal/bdd"
)

// parity builds x0 ⊕ x1 ⊕ … ⊕ x(n-1).
func parity(m *bdd.Manager, n int) bdd.Ref {
	f := bdd.Zero
	for i := 0; i < n; i++ {
		f = m.Xor(f, m.Var(i))
	}
	return f
}

// A pure parity cone is the canonical GF(2) case: every decision node
// has complement cofactors and the PPRM is linear in n.
func TestPredictParityIsXor(t *testing.T) {
	m := bdd.New(8)
	p := Predict(m, parity(m, 8))
	if p.Decision != Xor {
		t.Fatalf("parity predicted %v (%s), want xor", p.Decision, p.Why)
	}
	if p.Features.XorDensity != 1 {
		t.Fatalf("parity xor density = %v, want 1", p.Features.XorDensity)
	}
	if p.Features.PPRMCubes != 8 {
		t.Fatalf("parity-8 PPRM cubes = %d, want 8", p.Features.PPRMCubes)
	}
}

// A wide OR chain is the canonical SOP case: no XOR decision structure
// and a Reed-Muller form exponentially bigger than the SOP.
func TestPredictWideOrIsSop(t *testing.T) {
	m := bdd.New(10)
	f := bdd.Zero
	for i := 0; i < 10; i++ {
		f = m.Or(f, m.Var(i))
	}
	p := Predict(m, f)
	if p.Decision != Sop {
		t.Fatalf("wide OR predicted %v (%s), want sop", p.Decision, p.Why)
	}
	if p.Features.XorDensity != 0 {
		t.Fatalf("OR-chain xor density = %v, want 0", p.Features.XorDensity)
	}
	if p.Features.PPRMCubes != (1<<10)-1 {
		t.Fatalf("OR-10 PPRM cubes = %d, want %d", p.Features.PPRMCubes, (1<<10)-1)
	}
}

// Constant cones are trivially decided (no work either way).
func TestPredictConstant(t *testing.T) {
	m := bdd.New(4)
	for _, f := range []bdd.Ref{bdd.Zero, bdd.One} {
		p := Predict(m, f)
		if p.Decision != Xor {
			t.Fatalf("constant predicted %v, want xor (trivial)", p.Decision)
		}
	}
}

// The predictor is a pure function of the cone: repeated calls agree
// exactly, and it never mutates the shared manager.
func TestPredictDeterministicAndReadOnly(t *testing.T) {
	m := bdd.New(6)
	// maj3(x0,x1,x2) mixed with a parity tail: an ambiguous shape.
	maj := m.Or(m.Or(m.And(m.Var(0), m.Var(1)), m.And(m.Var(0), m.Var(2))), m.And(m.Var(1), m.Var(2)))
	f := m.Xor(maj, m.Xor(m.Var(3), m.Var(4)))
	before := m.Size()
	p1 := Predict(m, f)
	p2 := Predict(m, f)
	if p1 != p2 {
		t.Fatalf("two predictions differ: %+v vs %+v", p1, p2)
	}
	if m.Size() != before {
		t.Fatalf("Predict grew the shared BDD manager: %d -> %d nodes", before, m.Size())
	}
}

// complements must be exact: x⊕y's cofactors are complements, x·y's are
// not, and deep structural complements are found without materializing
// the negation.
func TestComplementCheck(t *testing.T) {
	m := bdd.New(6)
	x := parity(m, 6)
	c := newCompMemo(m)
	if !c.complements(m.Lo(x), m.Hi(x)) {
		t.Fatal("parity cofactors not detected as complements")
	}
	a := m.And(m.Var(0), m.Var(1))
	if c.complements(m.Lo(a), m.Hi(a)) {
		t.Fatal("AND cofactors misdetected as complements")
	}
	g := m.Or(m.And(m.Var(2), m.Var(3)), m.Var(4))
	ng := m.Not(g)
	if !c.complements(g, ng) {
		t.Fatal("materialized complement not detected")
	}
	if c.complements(g, g) {
		t.Fatal("a non-constant function is not its own complement")
	}
}
