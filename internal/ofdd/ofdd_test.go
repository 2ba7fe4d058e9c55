package ofdd

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bdd"
	"repro/internal/cube"
)

func assignOf(n, a int) cube.BitSet {
	s := cube.NewBitSet(n)
	for v := 0; v < n; v++ {
		if a&(1<<v) != 0 {
			s.Set(v)
		}
	}
	return s
}

func TestLitAndCube(t *testing.T) {
	m := New(3, nil)
	x0 := m.Lit(0)
	if m.TopVar(x0) != 0 || m.Lo(x0) != Zero || m.Hi(x0) != One {
		t.Error("Lit(0) malformed")
	}
	c := m.FromCube(cube.New(3, 0, 2))
	// x0*x2: true only when both set.
	for a := 0; a < 8; a++ {
		want := a&1 != 0 && a&4 != 0
		if got := m.Eval(c, assignOf(3, a)); got != want {
			t.Errorf("x0x2(%03b) = %v, want %v", a, got, want)
		}
	}
}

func TestXorSemantics(t *testing.T) {
	m := New(2, nil)
	f := m.Xor(m.Lit(0), m.Lit(1))
	for a := 0; a < 4; a++ {
		want := (a&1 != 0) != (a&2 != 0)
		if got := m.Eval(f, assignOf(2, a)); got != want {
			t.Errorf("xor(%02b) = %v, want %v", a, got, want)
		}
	}
	if m.Xor(f, f) != Zero {
		t.Error("f ⊕ f != 0")
	}
	if m.Xor(f, Zero) != f {
		t.Error("f ⊕ 0 != f")
	}
}

func TestDavioReductionRule(t *testing.T) {
	m := New(2, nil)
	// mk with hi=Zero must not create a node; exercised via Xor cancelling.
	f := m.Xor(m.Lit(0), m.Lit(0))
	if f != Zero {
		t.Error("cancelled literal should be Zero")
	}
}

// TestFigure1OFDD reproduces Figure 1 of the paper:
// f = x̄₁ ⊕ x̄₁x₃ ⊕ x̄₁x₂ ⊕ x̄₁x₂x₃ ⊕ x₃ ⊕ x₂  with polarity V = (0 1 1).
// Paper variables x₁,x₂,x₃ map to indices 0,1,2.
func TestFigure1OFDD(t *testing.T) {
	pol := []bool{false, true, true}
	m := New(3, pol)
	l := cube.NewList(3)
	l.Add(cube.New(3, 0))       // x̄₁
	l.Add(cube.New(3, 0, 2))    // x̄₁x₃
	l.Add(cube.New(3, 0, 1))    // x̄₁x₂
	l.Add(cube.New(3, 0, 1, 2)) // x̄₁x₂x₃
	l.Add(cube.New(3, 2))       // x₃
	l.Add(cube.New(3, 1))       // x₂
	f := m.FromCubes(l)

	if got := m.CubeCount(f); got != 6 {
		t.Errorf("CubeCount = %d, want 6", got)
	}
	back, err := m.Cubes(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(l) {
		t.Errorf("extracted cubes differ:\n got %s\nwant %s", back, l)
	}
	// Functional check against direct evaluation of the formula.
	direct := func(a int) bool {
		x1 := a&1 != 0
		x2 := a&2 != 0
		x3 := a&4 != 0
		v := !x1
		v = v != (!x1 && x3)
		v = v != (!x1 && x2)
		v = v != (!x1 && x2 && x3)
		v = v != x3
		v = v != x2
		return v
	}
	for a := 0; a < 8; a++ {
		if got := m.Eval(f, assignOf(3, a)); got != direct(a) {
			t.Errorf("f(%03b) = %v, want %v", a, got, direct(a))
		}
	}
	// Same function via the BDD route must give the identical node
	// (canonicity for fixed order + polarity).
	bm := bdd.New(3)
	var g bdd.Ref = bdd.Zero
	for a := 0; a < 8; a++ {
		if direct(a) {
			p := bdd.One
			for v := 0; v < 3; v++ {
				if a&(1<<v) != 0 {
					p = bm.And(p, bm.Var(v))
				} else {
					p = bm.And(p, bm.Not(bm.Var(v)))
				}
			}
			g = bm.Or(g, p)
		}
	}
	if m.FromBDD(bm, g) != f {
		t.Error("FromBDD and FromCubes disagree on canonical node")
	}
	dump := m.Dump(f)
	if !strings.Contains(dump, "x0(-)") {
		t.Errorf("dump should show negative polarity on x0:\n%s", dump)
	}
}

func TestPPRMKnownForms(t *testing.T) {
	// AND: x0x1 has exactly one PPRM cube.
	m := New(2, nil)
	bm := bdd.New(2)
	and := m.FromBDD(bm, bm.And(bm.Var(0), bm.Var(1)))
	if got := m.CubeCount(and); got != 1 {
		t.Errorf("PPRM cubes of AND = %d, want 1", got)
	}
	// OR: x0+x1 = x0 ⊕ x1 ⊕ x0x1: three cubes.
	or := m.FromBDD(bm, bm.Or(bm.Var(0), bm.Var(1)))
	if got := m.CubeCount(or); got != 3 {
		t.Errorf("PPRM cubes of OR = %d, want 3", got)
	}
	// XOR: two cubes.
	xor := m.FromBDD(bm, bm.Xor(bm.Var(0), bm.Var(1)))
	if got := m.CubeCount(xor); got != 2 {
		t.Errorf("PPRM cubes of XOR = %d, want 2", got)
	}
}

func TestNegativePolarityOR(t *testing.T) {
	// With both variables negative, x0+x1 = 1 ⊕ x̄0x̄1: two cubes.
	m := New(2, []bool{false, false})
	bm := bdd.New(2)
	or := m.FromBDD(bm, bm.Or(bm.Var(0), bm.Var(1)))
	if got := m.CubeCount(or); got != 2 {
		t.Errorf("negative-polarity cubes of OR = %d, want 2", got)
	}
	cubes, err := m.Cubes(or, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Expect the constant-1 cube and the cube {0,1}.
	hasOne, hasBoth := false, false
	for _, c := range cubes.Cubes {
		if c.IsOne() {
			hasOne = true
		}
		if c.Size() == 2 {
			hasBoth = true
		}
	}
	if !hasOne || !hasBoth {
		t.Errorf("unexpected cube shapes: %s", cubes)
	}
}

// Property: for random functions and random polarities, the OFDD built
// from the BDD evaluates identically to the BDD, and extracting cubes and
// rebuilding gives the same canonical node.
func TestQuickBDDRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		pol := make([]bool, n)
		for i := range pol {
			pol[i] = rng.Intn(2) == 1
		}
		bm := bdd.New(n)
		var g bdd.Ref = bdd.Zero
		for a := 0; a < 1<<n; a++ {
			if rng.Intn(2) == 1 {
				p := bdd.One
				for v := 0; v < n; v++ {
					if a&(1<<v) != 0 {
						p = bm.And(p, bm.Var(v))
					} else {
						p = bm.And(p, bm.Not(bm.Var(v)))
					}
				}
				g = bm.Or(g, p)
			}
		}
		m := New(n, pol)
		f1 := m.FromBDD(bm, g)
		// Evaluation agreement.
		for a := 0; a < 1<<n; a++ {
			if m.Eval(f1, assignOf(n, a)) != bm.Eval(g, assignOf(n, a)) {
				return false
			}
		}
		// Cube extraction round trip.
		cl, err := m.Cubes(f1, 0)
		if err != nil || m.FromCubes(cl) != f1 {
			return false
		}
		// ToBDD round trip.
		if m.ToBDD(bm)(f1) != g {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCubesLimitError(t *testing.T) {
	m := New(4, nil)
	bm := bdd.New(4)
	or := bm.Var(0)
	for v := 1; v < 4; v++ {
		or = bm.Or(or, bm.Var(v))
	}
	f := m.FromBDD(bm, or) // PPRM of 4-var OR has 15 cubes
	if _, err := m.Cubes(f, 3); err == nil {
		t.Error("expected error when cube count exceeds limit")
	}
	if l, err := m.Cubes(f, 15); err != nil || l.Len() != 15 {
		t.Errorf("at-limit extraction should succeed: %v", err)
	}
}

// TestCubeCountSaturates: the 64-input OR has 2⁶⁴−1 FPRM cubes, past
// int64, from a 129-node OFDD; the count saturates at MaxCubeCount
// instead of wrapping to a negative number that passes every cap.
func TestCubeCountSaturates(t *testing.T) {
	bm := bdd.New(64)
	or := bdd.Zero
	for v := 0; v < 64; v++ {
		or = bm.Or(or, bm.Var(v))
	}
	m := New(64, nil)
	f := m.FromBDD(bm, or)
	if got := m.CubeCount(f); got != MaxCubeCount {
		t.Errorf("OR-64 CubeCount = %d, want MaxCubeCount %d", got, MaxCubeCount)
	}
	if _, err := m.Cubes(f, 1<<20); err == nil {
		t.Error("OR-64 extraction under a 2^20 limit should fail")
	}
}

// TestCubesSampleIsCubesPrefix: CubesSample walks like Cubes and stops
// after limit cubes, so each sample is a subset of the full list, and a
// limit at or past the count returns the full list.
func TestCubesSampleIsCubesPrefix(t *testing.T) {
	bm := bdd.New(5)
	or := bdd.Zero
	for v := 0; v < 5; v++ {
		or = bm.Or(or, bm.Var(v))
	}
	m := New(5, []bool{true, false, true, false, true})
	f := m.FromBDD(bm, or)
	all, err := m.Cubes(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{1, 7, int(m.CubeCount(f)), 100} {
		sample := m.CubesSample(f, limit)
		if want := min(limit, all.Len()); sample.Len() != want {
			t.Fatalf("CubesSample(%d) has %d cubes, want %d", limit, sample.Len(), want)
		}
		for _, c := range sample.Cubes {
			found := false
			for _, d := range all.Cubes {
				found = found || c.Equal(d)
			}
			if !found {
				t.Fatalf("CubesSample(%d) cube %v is not a cube of f", limit, c)
			}
		}
		if limit >= all.Len() && !sample.Equal(all) {
			t.Errorf("CubesSample(%d) = %v, want the full list %v", limit, sample, all)
		}
	}
}

// Adder carry chain: FPRM cube counts follow N_k = 2·N_{k-1} + 1, matching
// the paper's z4ml observation (32 cubes total for the 3-bit adder).
func TestAdderCubeCounts(t *testing.T) {
	// Variables: a1 b1 a2 b2 a3 b3 cin = 0..6 (order chosen arbitrarily).
	n := 7
	bm := bdd.New(n)
	a := []bdd.Ref{bm.Var(0), bm.Var(2), bm.Var(4)}
	b := []bdd.Ref{bm.Var(1), bm.Var(3), bm.Var(5)}
	carry := bm.Var(6)
	m := New(n, nil)
	total := int64(0)
	for k := 0; k < 3; k++ {
		sum := bm.Xor(bm.Xor(a[k], b[k]), carry)
		carry = bm.Or(bm.And(a[k], b[k]), bm.And(carry, bm.Xor(a[k], b[k])))
		total += m.CubeCount(m.FromBDD(bm, sum))
	}
	total += m.CubeCount(m.FromBDD(bm, carry))
	if total != 32 {
		t.Errorf("z4ml FPRM cube total = %d, want 32 (paper, Section 1)", total)
	}
}
