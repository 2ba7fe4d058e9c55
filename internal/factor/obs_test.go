package factor

import (
	"testing"

	"repro/internal/cube"
	"repro/internal/obs"
)

// Hand-traced rule counters. Each case drives exactly one rule once and
// asserts the whole FactorStats struct, so a miscounted or double-counted
// probe site fails loudly.

func TestObsRuleATrace(t *testing.T) {
	// A ⊕ AB = A·B̄: one rule (a) firing, then a clean fixpoint pass.
	var fo obs.Factor
	r := ApplyRules(XorN(Lit(0), AndN(Lit(0), Lit(1))), 8, &fo)
	if want := AndN(Lit(0), Not(Lit(1))); r.Key() != want.Key() {
		t.Fatalf("got %s, want %s", r, want)
	}
	if got, want := fo.Snapshot(), (obs.FactorStats{RuleA: 1, Passes: 2}); got != want {
		t.Errorf("counters = %+v, want %+v", got, want)
	}
}

func TestObsRuleBTrace(t *testing.T) {
	// X ⊕ Y ⊕ XY = X + Y: one rule (b) firing. Pass 1 rewrites, pass 2
	// confirms the fixpoint, so Passes is 2.
	var fo obs.Factor
	r := ApplyRules(XorN(Lit(0), Lit(1), AndN(Lit(0), Lit(1))), 8, &fo)
	if want := OrN(Lit(0), Lit(1)); r.Key() != want.Key() {
		t.Fatalf("got %s, want %s", r, want)
	}
	if got, want := fo.Snapshot(), (obs.FactorStats{RuleB: 1, Passes: 2}); got != want {
		t.Errorf("counters = %+v, want %+v", got, want)
	}
}

func TestObsRuleCLiteralFormCountsAsRuleA(t *testing.T) {
	// AB ⊕ B̄ = A + B̄. XorN pulls the literal negation out front
	// (x ⊕ ȳ = ¬(x ⊕ y)), so the engine reaches this result through the
	// rule (a) block on AB ⊕ B — the trace must say rule (a), not (c).
	var fo obs.Factor
	r := ApplyRules(XorN(AndN(Lit(0), Lit(1)), Not(Lit(1))), 8, &fo)
	if want := OrN(Lit(0), Not(Lit(1))); r.Key() != want.Key() {
		t.Fatalf("got %s, want %s", r, want)
	}
	if got, want := fo.Snapshot(), (obs.FactorStats{RuleA: 1, Passes: 2}); got != want {
		t.Errorf("counters = %+v, want %+v", got, want)
	}
}

func TestObsRuleCTrace(t *testing.T) {
	// A·X̄ ⊕ X = A + X with X = B+C: the complement factor X̄ is not a
	// literal, so XorN cannot normalize it away and the rule (c) block
	// itself fires.
	x := OrN(Lit(1), Lit(2))
	var fo obs.Factor
	r := ApplyRules(XorN(AndN(Lit(0), Not(x)), x), 8, &fo)
	if want := OrN(Lit(0), Lit(1), Lit(2)); r.Key() != want.Key() {
		t.Fatalf("got %s, want %s", r, want)
	}
	if got, want := fo.Snapshot(), (obs.FactorStats{RuleC: 1, Passes: 2}); got != want {
		t.Errorf("counters = %+v, want %+v", got, want)
	}
}

func TestObsRuleDTrace(t *testing.T) {
	// AB ⊕ AC = A(B ⊕ C): one XOR-level common-factor extraction. The
	// recursive call on the quotient [B, C] finds no shared factor and
	// must not count.
	var fo obs.Factor
	r := factorXorKids([]*Expr{AndN(Lit(0), Lit(1)), AndN(Lit(0), Lit(2))}, &fo)
	if want := AndN(Lit(0), XorN(Lit(1), Lit(2))); r.Key() != want.Key() {
		t.Fatalf("got %s, want %s", r, want)
	}
	if got, want := fo.Snapshot(), (obs.FactorStats{RuleD: 1}); got != want {
		t.Errorf("counters = %+v, want %+v", got, want)
	}
}

func TestObsRuleETrace(t *testing.T) {
	// AB + AC + D = A(B+C) + D: one OR-level extraction; the recursive
	// calls on [B, C] and [D] find nothing.
	var fo obs.Factor
	r := factorOr([]*Expr{AndN(Lit(0), Lit(1)), AndN(Lit(0), Lit(2)), Lit(3)}, &fo)
	if want := OrN(AndN(Lit(0), OrN(Lit(1), Lit(2))), Lit(3)); r.Key() != want.Key() {
		t.Fatalf("got %s, want %s", r, want)
	}
	if got, want := fo.Snapshot(), (obs.FactorStats{RuleE: 1}); got != want {
		t.Errorf("counters = %+v, want %+v", got, want)
	}
}

func TestObsPassCap(t *testing.T) {
	// maxPasses caps the fixpoint loop, and the counter reports the
	// passes actually executed.
	var fo obs.Factor
	ApplyRules(XorN(Lit(0), AndN(Lit(0), Lit(1))), 1, &fo)
	if got := fo.Snapshot().Passes; got != 1 {
		t.Errorf("capped passes = %d, want 1", got)
	}
}

func TestObsDivisorHitTrace(t *testing.T) {
	// ac ⊕ ad ⊕ bc ⊕ bd over {a,b,c,d}: the pair-XOR divisor a⊕b divides
	// the whole list with quotient {c, d} — coverage 2·2 = 4, exactly the
	// acceptance threshold, so the cube method records one divisor hit.
	l := cube.NewList(4)
	l.Add(cube.New(4, 0, 2))
	l.Add(cube.New(4, 0, 3))
	l.Add(cube.New(4, 1, 2))
	l.Add(cube.New(4, 1, 3))
	var fo obs.Factor
	e := NewContext(Options{Obs: &fo}).Factor(l)
	for a := 0; a < 16; a++ {
		assign := cube.NewBitSet(4)
		lits := make([]bool, 4)
		for v := 0; v < 4; v++ {
			if a&(1<<v) != 0 {
				assign.Set(v)
				lits[v] = true
			}
		}
		if e.Eval(lits) != l.Eval(assign) {
			t.Fatalf("factored form differs from cube list at %04b", a)
		}
	}
	if got := fo.Snapshot().DivisorHits; got != 1 {
		t.Errorf("divisor hits = %d, want 1", got)
	}
}
