package factor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bdd"
	"repro/internal/cube"
	"repro/internal/network"
	"repro/internal/ofdd"
)

func TestExprConstruction(t *testing.T) {
	a, b := Lit(0), Lit(1)
	if XorN(a, a) != Zero() {
		t.Error("a ^ a should be 0")
	}
	if AndN(a, One()).Key() != a.Key() {
		t.Error("a * 1 should be a")
	}
	if AndN(a, Zero()) != Zero() {
		t.Error("a * 0 should be 0")
	}
	if OrN(a, One()) != One() {
		t.Error("a + 1 should be 1")
	}
	if AndN(a, Not(a)) != Zero() {
		t.Error("a * !a should be 0")
	}
	if OrN(a, Not(a)) != One() {
		t.Error("a + !a should be 1")
	}
	if Not(Not(a)) != a {
		t.Error("double negation should cancel")
	}
	// Commutativity via canonical keys.
	if AndN(a, b).Key() != AndN(b, a).Key() {
		t.Error("AND not commutative in keys")
	}
	// Flattening.
	if XorN(a, XorN(b, Lit(2))).Key() != XorN(a, b, Lit(2)).Key() {
		t.Error("XOR not flattened")
	}
	// x ^ !y with x==y gives 1.
	if XorN(a, Not(a)) != One() {
		t.Error("a ^ !a should be 1")
	}
}

// TestStringParenthesizesComplement: a complemented AND, OR or XOR
// renders as !(…), not as a product whose first factor reads negated.
func TestStringParenthesizesComplement(t *testing.T) {
	x0, x2, x5 := Lit(0), Lit(2), Lit(5)
	for _, tc := range []struct {
		e    *Expr
		want string
	}{
		{Not(AndN(Not(x5), x0, OrN(x0, Not(x2)))), "!(!x5*x0*(!x2 + x0))"},
		{Not(OrN(x0, x2)), "!(x0 + x2)"},
		{Not(XorN(x0, x2)), "!(x0 ^ x2)"},
		{AndN(Not(x5), x0), "!x5*x0"},
	} {
		if got := tc.e.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func evalExpr(e *Expr, n, a int) bool {
	lits := make([]bool, n)
	for v := 0; v < n; v++ {
		lits[v] = a&(1<<v) != 0
	}
	return e.Eval(lits)
}

func TestRuleA(t *testing.T) {
	// A ⊕ AB = A·B̄ with A=x0, B=x1.
	e := XorN(Lit(0), AndN(Lit(0), Lit(1)))
	r := ApplyRules(e, 8, nil)
	want := AndN(Lit(0), Not(Lit(1)))
	if r.Key() != want.Key() {
		t.Errorf("rule (a): got %s, want %s", r, want)
	}
}

func TestRuleB(t *testing.T) {
	// AB ⊕ AC ⊕ ABC = A(B+C) with A=x0, B=x1, C=x2.
	e := XorN(AndN(Lit(0), Lit(1)), AndN(Lit(0), Lit(2)), AndN(Lit(0), Lit(1), Lit(2)))
	r := ApplyRules(e, 8, nil)
	want := AndN(Lit(0), OrN(Lit(1), Lit(2)))
	if r.Key() != want.Key() {
		t.Errorf("rule (b)+(e): got %s, want %s", r, want)
	}
}

func TestRuleC(t *testing.T) {
	// AB ⊕ B̄ = A + B̄ with A=x0, B=x1.
	e := XorN(AndN(Lit(0), Lit(1)), Not(Lit(1)))
	r := ApplyRules(e, 8, nil)
	want := OrN(Lit(0), Not(Lit(1)))
	if r.Key() != want.Key() {
		t.Errorf("rule (c): got %s, want %s", r, want)
	}
}

func TestPaperReductionSequence(t *testing.T) {
	// Section 4: (B ⊕ C) ⊕ BC = B + C.
	e := XorN(XorN(Lit(0), Lit(1)), AndN(Lit(0), Lit(1)))
	r := ApplyRules(e, 8, nil)
	want := OrN(Lit(0), Lit(1))
	if r.Key() != want.Key() {
		t.Errorf("(B⊕C)⊕BC: got %s, want %s", r, want)
	}
}

func TestRuleEFactorsCommonCube(t *testing.T) {
	// AB + AC + D → A(B+C) + D.
	e := factorOr([]*Expr{AndN(Lit(0), Lit(1)), AndN(Lit(0), Lit(2)), Lit(3)}, nil)
	want := OrN(AndN(Lit(0), OrN(Lit(1), Lit(2))), Lit(3))
	if e.Key() != want.Key() {
		t.Errorf("rule (e): got %s, want %s", e, want)
	}
}

// Property: ApplyRules preserves the function.
func TestQuickRulesPreserveFunction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(3)
		e := randomExpr(rng, n, 3)
		r := ApplyRules(e, 8, nil)
		for a := 0; a < 1<<n; a++ {
			if evalExpr(e, n, a) != evalExpr(r, n, a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func randomExpr(rng *rand.Rand, nVars, depth int) *Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		return Lit(rng.Intn(nVars))
	}
	k := 2 + rng.Intn(2)
	kids := make([]*Expr, k)
	for i := range kids {
		kids[i] = randomExpr(rng, nVars, depth-1)
	}
	switch rng.Intn(4) {
	case 0:
		return AndN(kids...)
	case 1:
		return OrN(kids...)
	case 2:
		return XorN(kids...)
	default:
		return Not(kids[0])
	}
}

func randomESOP(rng *rand.Rand, n, maxCubes int) *cube.List {
	l := cube.NewList(n)
	for i := 0; i < 1+rng.Intn(maxCubes); i++ {
		c := cube.One(n)
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 1 {
				c.Vars.Set(v)
			}
		}
		l.Add(c)
	}
	l.Canonicalize()
	return l
}

// Property: Method 1 (Context.Factor) produces an expression equal to
// the ESOP.
func TestQuickCubeMethodCorrect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		l := randomESOP(rng, n, 10)
		for _, rules := range []bool{false, true} {
			e := NewContext(Options{ApplyRules: rules}).Factor(l)
			for a := 0; a < 1<<n; a++ {
				assign := cube.NewBitSet(n)
				for v := 0; v < n; v++ {
					if a&(1<<v) != 0 {
						assign.Set(v)
					}
				}
				if evalExpr(e, n, a) != l.Eval(assign) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Method 2 (OFDDContext.Factor) produces an expression equal
// to the OFDD function.
func TestQuickOFDDMethodCorrect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(3)
		l := randomESOP(rng, n, 8)
		m := ofdd.New(n, nil) // positive polarity: literal space = var space
		g := m.FromCubes(l)
		e := NewOFDDContext(m, Options{ApplyRules: true}).Factor(g)
		for a := 0; a < 1<<n; a++ {
			assign := cube.NewBitSet(n)
			for v := 0; v < n; v++ {
				if a&(1<<v) != 0 {
					assign.Set(v)
				}
			}
			if evalExpr(e, n, a) != m.Eval(g, assign) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// z4mlList is z4ml's output x26 = x3 ⊕ x6 ⊕ x1x4 ⊕ x1x7 ⊕ x4x7
// (0-based: 2, 5, {0,3}, {0,6}, {3,6}).
func z4mlList() *cube.List {
	l := cube.NewList(7)
	l.Add(cube.New(7, 2))
	l.Add(cube.New(7, 5))
	l.Add(cube.New(7, 0, 3))
	l.Add(cube.New(7, 0, 6))
	l.Add(cube.New(7, 3, 6))
	return l
}

func TestCubeMethodZ4mlOutput(t *testing.T) {
	l := z4mlList()
	e := NewContext(Options{ApplyRules: true}).Factor(l)
	// Function preserved.
	for a := 0; a < 1<<7; a++ {
		assign := cube.NewBitSet(7)
		for v := 0; v < 7; v++ {
			if a&(1<<v) != 0 {
				assign.Set(v)
			}
		}
		if evalExpr(e, 7, a) != l.Eval(assign) {
			t.Fatalf("function broken at %07b", a)
		}
	}
	// Factored form should not exceed the flat literal count (8 lits).
	if e.Literals() > 8 {
		t.Errorf("factored literals = %d > 8 (flat)", e.Literals())
	}
}

// Property: ApplyPolarity followed by emission into a network preserves
// the expression function under the polarity.
func TestQuickEmitCorrect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(3)
		e := randomExpr(rng, n, 3)
		pol := make([]bool, n)
		for i := range pol {
			pol[i] = rng.Intn(2) == 1
		}
		net := network.New("t")
		pis := make([]int, n)
		for i := range pis {
			pis[i] = net.AddPI("")
		}
		em := NewEmitter(net, pis)
		net.AddPO("o", em.Emit(ApplyPolarity(e, pol)))
		for a := 0; a < 1<<n; a++ {
			assign := cube.NewBitSet(n)
			lits := make([]bool, n)
			for v := 0; v < n; v++ {
				if a&(1<<v) != 0 {
					assign.Set(v)
				}
				lits[v] = assign.Has(v) == pol[v]
			}
			if net.Eval(assign)[0] != e.Eval(lits) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEmitterSharesSubexpressions(t *testing.T) {
	net := network.New("s")
	pis := []int{net.AddPI("a"), net.AddPI("b")}
	em := NewEmitter(net, pis)
	e := AndN(Lit(0), Lit(1))
	id1 := em.Emit(e)
	id2 := em.Emit(AndN(Lit(1), Lit(0)))
	if id1 != id2 {
		t.Error("identical expressions emitted twice")
	}
}

func TestBalancedXorTreeShape(t *testing.T) {
	// Disjoint-support groups must be joined by a balanced XOR tree
	// (Step 5); with 4 disjoint cubes the tree has depth 2.
	l := cube.NewList(8)
	l.Add(cube.New(8, 0, 1))
	l.Add(cube.New(8, 2, 3))
	l.Add(cube.New(8, 4, 5))
	l.Add(cube.New(8, 6, 7))
	e := NewContext(Options{ApplyRules: false}).Factor(l)
	if e.Op != OpXor {
		t.Fatalf("root should be XOR, got %v", e.Op)
	}
	// Flattened XOR has the 4 AND cubes as children; the balanced tree is
	// reconstructed at emission. Structural check: all 4 cubes present.
	if len(e.Kids) != 4 {
		t.Errorf("flattened XOR has %d kids, want 4", len(e.Kids))
	}
}

func TestCubeMethodConstantCube(t *testing.T) {
	// 1 ⊕ x0 should become !x0 (assumption 2: the constant cube is an
	// inverter at the output).
	l := cube.NewList(2)
	l.Add(cube.One(2))
	l.Add(cube.New(2, 0))
	e := NewContext(Options{ApplyRules: true}).Factor(l)
	want := Not(Lit(0))
	if e.Key() != want.Key() {
		t.Errorf("1 ^ x0: got %s, want %s", e, want)
	}
}

// t481List is the 16-cube FPRM of t481 (Example 1) in literal space.
func t481List() *cube.List {
	mk := func(vars ...int) cube.Cube { return cube.New(16, vars...) }
	l := cube.NewList(16)
	for _, c := range []cube.Cube{
		mk(0, 1, 4, 5),
		mk(0, 1, 6), mk(0, 1, 7), mk(0, 1, 6, 7),
		mk(2, 3, 4, 5),
		mk(2, 3, 6), mk(2, 3, 7), mk(2, 3, 6, 7),
		mk(8, 12, 13), mk(9, 12, 13), mk(8, 9, 12, 13),
		mk(8, 14, 15), mk(9, 14, 15), mk(8, 9, 14, 15),
		mk(10, 11, 12, 13),
		mk(10, 11, 14, 15),
	} {
		l.Add(c)
	}
	return l
}

func TestT481Factorization(t *testing.T) {
	l := t481List()
	e := NewContext(Options{ApplyRules: true}).Factor(l)
	// Functional check against the cube list on random assignments.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		assign := cube.NewBitSet(16)
		for v := 0; v < 16; v++ {
			if rng.Intn(2) == 1 {
				assign.Set(v)
			}
		}
		lits := make([]bool, 16)
		for v := 0; v < 16; v++ {
			lits[v] = assign.Has(v)
		}
		if e.Eval(lits) != l.Eval(assign) {
			t.Fatal("t481 factorization broke the function")
		}
	}
	// The flat form has 52 literals; factoring must reduce it
	// substantially (the paper's final form has ~20 literal occurrences).
	if e.Literals() >= 35 {
		t.Errorf("t481 factored literals = %d, want < 35 (flat = %d)", e.Literals(), l.Literals())
	}
	t.Logf("t481 factored: %s (%d literals)", e, e.Literals())
}

func TestOFDDMethodSharing(t *testing.T) {
	// A function whose OFDD shares a subgraph: f = x0·g ⊕ g where
	// g = x1 ⊕ x2; sharing must reach the emitted network.
	m := ofdd.New(3, nil)
	bm := bdd.New(3)
	g := bm.Xor(bm.Var(1), bm.Var(2))
	f := bm.Xor(bm.And(bm.Var(0), g), g)
	e := NewOFDDContext(m, Options{ApplyRules: false}).Factor(m.FromBDD(bm, f))
	for a := 0; a < 8; a++ {
		assign := cube.NewBitSet(3)
		lits := make([]bool, 3)
		for v := 0; v < 3; v++ {
			if a&(1<<v) != 0 {
				assign.Set(v)
				lits[v] = true
			}
		}
		if e.Eval(lits) != bm.Eval(f, assign) {
			t.Fatalf("OFDD method wrong at %03b", a)
		}
	}
}
