package factor

import (
	"testing"

	"repro/internal/cube"
)

// TestRegistryReuseAcrossOutputs: factoring the adder chain c1, c2 through
// one context must reuse c1's expression inside c2 (same pointer/key).
func TestRegistryReuseAcrossOutputs(t *testing.T) {
	n := 7 // a1 b1 cin a2 b2 … (indices 0,1,2 for stage 1; 3,4 for stage 2)
	c1 := cube.NewList(n)
	c1.Add(cube.New(n, 0, 1))
	c1.Add(cube.New(n, 0, 2))
	c1.Add(cube.New(n, 1, 2))
	// c2 = a2b2 ⊕ a2·c1 ⊕ b2·c1 expanded into cubes.
	c2 := cube.NewList(n)
	c2.Add(cube.New(n, 3, 4))
	for _, base := range []int{3, 4} {
		for _, cc := range c1.Cubes {
			nc := cc.Clone()
			nc.Vars.Set(base)
			c2.Add(nc)
		}
	}
	cx := NewContext(Options{ApplyRules: true})
	e1 := cx.Factor(c1)
	e2 := cx.Factor(c2)
	// e2 must contain e1's key as a subexpression.
	if !containsSubexpr(e2, e1.Key()) {
		t.Errorf("c2 does not reuse c1's expression:\n c1=%s\n c2=%s", e1, e2)
	}
}

func containsSubexpr(e *Expr, key string) bool {
	if e.Key() == key {
		return true
	}
	for _, k := range e.Kids {
		if containsSubexpr(k, key) {
			return true
		}
	}
	return false
}

// TestPairXorDivisor: the carry cubes ab ⊕ ac ⊕ bc must factor through
// the (a ⊕ b) pair divisor into ab ⊕ c(a⊕b) (4 literals), not stay flat.
func TestPairXorDivisor(t *testing.T) {
	l := cube.NewList(3)
	l.Add(cube.New(3, 0, 1))
	l.Add(cube.New(3, 0, 2))
	l.Add(cube.New(3, 1, 2))
	e := NewContext(Options{ApplyRules: false}).Factor(l)
	// ab ⊕ c(a⊕b): 5 literals, with a pair-XOR divisor as an AND factor.
	if e.Literals() > 5 {
		t.Errorf("carry factoring uses %d literals (%s), want ≤ 5 via a pair-XOR divisor", e.Literals(), e)
	}
	if !hasPairXorFactor(e) {
		t.Errorf("no pair-XOR divisor in %s", e)
	}
	// Function check.
	for a := 0; a < 8; a++ {
		lits := make([]bool, 3)
		assign := cube.NewBitSet(3)
		for v := 0; v < 3; v++ {
			if a&(1<<v) != 0 {
				lits[v] = true
				assign.Set(v)
			}
		}
		if e.Eval(lits) != l.Eval(assign) {
			t.Fatalf("function broken at %03b", a)
		}
	}
}

// TestMemoDeterminism: the same list factors to the same expression
// through separate contexts (key-for-key).
func TestMemoDeterminism(t *testing.T) {
	mk := func() *cube.List {
		l := cube.NewList(6)
		l.Add(cube.New(6, 0, 1))
		l.Add(cube.New(6, 0, 2, 3))
		l.Add(cube.New(6, 1, 2, 3))
		l.Add(cube.New(6, 4, 5))
		return l
	}
	e1 := NewContext(Options{ApplyRules: true}).Factor(mk())
	e2 := NewContext(Options{ApplyRules: true}).Factor(mk())
	if e1.Key() != e2.Key() {
		t.Errorf("non-deterministic factoring:\n %s\n %s", e1, e2)
	}
}

// TestOFDDContextSharing: two functions sharing an OFDD subgraph must get
// the same subexpression through a shared context.
func TestOFDDContextSharing(t *testing.T) {
	// Covered structurally: identical cube lists through one OFDD manager
	// collapse to the same node, hence the same memoized expression.
	l := cube.NewList(4)
	l.Add(cube.New(4, 0, 1))
	l.Add(cube.New(4, 2))
	// Reuse via the memo: factoring the same list twice must return the
	// identical expression pointer.
	cx := NewContext(Options{ApplyRules: true})
	e1 := cx.Factor(l)
	e2 := cx.Factor(l.Clone())
	if e1.Key() != e2.Key() {
		t.Error("context memo did not return an identical expression")
	}
}

// hasPairXorFactor reports whether some AND node has a 2-literal XOR kid.
func hasPairXorFactor(e *Expr) bool {
	if e.Op == OpXor && len(e.Kids) == 2 && e.Kids[0].Op == OpLit && e.Kids[1].Op == OpLit {
		return true
	}
	for _, k := range e.Kids {
		if hasPairXorFactor(k) {
			return true
		}
	}
	return false
}
