package sisbase

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bdd"
	"repro/internal/budget"
	"repro/internal/network"
	"repro/internal/sop"
)

// buildSpec returns a small random gate network.
func buildSpec(rng *rand.Rand, nPI, nGates int) *network.Network {
	spec := network.New("r")
	for i := 0; i < nPI; i++ {
		spec.AddPI("")
	}
	types := []network.GateType{network.And, network.Or, network.Xor, network.Not, network.Nand, network.Nor}
	for i := 0; i < nGates; i++ {
		ty := types[rng.Intn(len(types))]
		k := 2
		if ty == network.Not {
			k = 1
		}
		fanins := make([]int, k)
		for j := range fanins {
			fanins[j] = rng.Intn(len(spec.Gates))
		}
		spec.AddGate(ty, fanins...)
	}
	spec.AddPO("o1", len(spec.Gates)-1)
	spec.AddPO("o2", rng.Intn(len(spec.Gates)))
	return spec
}

func equalNets(a, b *network.Network) bool {
	m := bdd.New(a.NumPIs())
	fa := a.ToBDDs(m)
	fb := b.ToBDDs(m)
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		if fa[i] != fb[i] {
			return false
		}
	}
	return true
}

// Property: the baseline flow preserves the function.
func TestQuickBaselinePreserves(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := buildSpec(rng, 3+rng.Intn(3), 4+rng.Intn(12))
		res, err := Run(context.Background(), spec, DefaultOptions())
		if err != nil {
			return false
		}
		return equalNets(spec, res.Network)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// RunCone optimizes one output's cone on the full PI space: the result
// has every PI of the parent (index-compatible) and exactly the cone's
// function on its single output.
func TestRunConePreservesConeFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		spec := buildSpec(rng, 3+rng.Intn(3), 4+rng.Intn(12))
		m := bdd.New(spec.NumPIs())
		want := spec.ToBDDs(m)
		for po := range spec.POs {
			res, err := RunCone(context.Background(), spec, po, nil)
			if err != nil {
				t.Fatalf("trial %d po %d: %v", trial, po, err)
			}
			if res.Stopped != "" {
				t.Fatalf("trial %d po %d: unexpected stop %q", trial, po, res.Stopped)
			}
			if got := res.Network.NumPIs(); got != spec.NumPIs() {
				t.Fatalf("trial %d po %d: cone result has %d PIs, want %d", trial, po, got, spec.NumPIs())
			}
			if got := res.Network.NumPOs(); got != 1 {
				t.Fatalf("trial %d po %d: cone result has %d POs, want 1", trial, po, got)
			}
			if f := res.Network.ToBDDs(m); f[0] != want[po] {
				t.Fatalf("trial %d po %d: cone function changed", trial, po)
			}
		}
	}
	if _, err := RunCone(context.Background(), buildSpec(rng, 3, 4), 99, nil); err == nil {
		t.Fatal("out-of-range output index must error")
	}
}

// RunCone polls the budget between passes: an exhausted budget stops the
// script gracefully (Stopped set, function intact), mirroring the ctx
// poll the whole-network Run already had.
func TestRunConeBudgetStopsGracefully(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	spec := buildSpec(rng, 5, 14)
	bud := budget.New(context.Background(), budget.Limits{Steps: 1})
	if err := budget.Guard(func() { bud.Step("x"); bud.Step("x") }); err == nil {
		t.Fatal("setup: budget did not trip")
	}
	res, err := RunCone(context.Background(), spec, 0, bud)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped == "" {
		t.Fatal("exhausted budget did not stop the script")
	}
	m := bdd.New(spec.NumPIs())
	if f := res.Network.ToBDDs(m); f[0] != spec.ToBDDs(m)[0] {
		t.Fatal("budget-stopped cone result is not functionally intact")
	}
}

// TestDivideBasics: (ab + ac + d) / a = (b + c), remainder d.
func TestDivideBasics(t *testing.T) {
	capSig := 8
	f := sop.NewCover(capSig)
	mk := func(pos ...int) sop.Term {
		t := sop.NewTerm(capSig)
		for _, v := range pos {
			t.SetPos(v)
		}
		return t
	}
	f.Add(mk(0, 1))
	f.Add(mk(0, 2))
	f.Add(mk(3))
	d := sop.NewCover(capSig)
	d.Add(mk(0))
	q, r := Divide(f, d)
	if len(q.Terms) != 2 || len(r.Terms) != 1 {
		t.Fatalf("q=%d terms r=%d terms", len(q.Terms), len(r.Terms))
	}
	if !r.Terms[0].Pos.Has(3) {
		t.Error("remainder should be d")
	}
}

// TestDivideDoubleCube: (ab + ac + db + dc) / (b + c) = a + d.
func TestDivideDoubleCube(t *testing.T) {
	capSig := 8
	mk := func(pos ...int) sop.Term {
		t := sop.NewTerm(capSig)
		for _, v := range pos {
			t.SetPos(v)
		}
		return t
	}
	f := sop.NewCover(capSig)
	f.Add(mk(0, 1))
	f.Add(mk(0, 2))
	f.Add(mk(3, 1))
	f.Add(mk(3, 2))
	d := sop.NewCover(capSig)
	d.Add(mk(1))
	d.Add(mk(2))
	q, r := Divide(f, d)
	if len(q.Terms) != 2 || len(r.Terms) != 0 {
		t.Fatalf("q=%s r=%s", q, r)
	}
}

// TestDivideRespectsSupportDisjointness: (ab)/(a) must not put a in q.
func TestDivideSupportRule(t *testing.T) {
	capSig := 4
	f := sop.NewCover(capSig)
	t1 := sop.NewTerm(capSig)
	t1.SetPos(0)
	f.Add(t1) // f = a
	d := sop.NewCover(capSig)
	t2 := sop.NewTerm(capSig)
	t2.SetPos(0)
	d.Add(t2) // d = a
	q, r := Divide(f, d)
	// a / a = 1 (empty term), remainder empty.
	if len(q.Terms) != 1 || q.Terms[0].Literals() != 0 || len(r.Terms) != 0 {
		t.Errorf("a/a: q=%s r=%s", q, r)
	}
}

// TestFastExtractSharesCommonCube: two nodes both containing cube ab
// should share an extracted node.
func TestFastExtractSharesCommonCube(t *testing.T) {
	spec := network.New("s")
	a := spec.AddPI("a")
	b := spec.AddPI("b")
	c := spec.AddPI("c")
	d := spec.AddPI("d")
	// o1 = ab + c, o2 = ab + d — "ab" is a shared single-cube divisor.
	ab1 := spec.AddGate(network.And, a, b)
	o1 := spec.AddGate(network.Or, ab1, c)
	ab2 := spec.AddGate(network.And, a, b)
	o2 := spec.AddGate(network.Or, ab2, d)
	spec.AddPO("o1", o1)
	spec.AddPO("o2", o2)
	res, err := Run(context.Background(), spec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !equalNets(spec, res.Network) {
		t.Fatal("function changed")
	}
	// ab computed once: total 2-input gates = 1 AND + 2 OR = 3.
	if res.Stats.Gates2 > 3 {
		t.Errorf("gates2 = %d, want ≤ 3 (shared ab)", res.Stats.Gates2)
	}
}

// TestEliminateCollapsesSmallNodes: a chain of buffers through tiny nodes
// collapses.
func TestEliminateAndSweep(t *testing.T) {
	spec := network.New("e")
	a := spec.AddPI("a")
	b := spec.AddPI("b")
	g1 := spec.AddGate(network.And, a, b)
	g2 := spec.AddGate(network.Buf, g1)
	g3 := spec.AddGate(network.Buf, g2)
	spec.AddPO("o", g3)
	res, err := Run(context.Background(), spec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !equalNets(spec, res.Network) {
		t.Fatal("function changed")
	}
	if res.Stats.Gates2 != 1 {
		t.Errorf("gates2 = %d, want 1", res.Stats.Gates2)
	}
}

// TestXorGateExpansion: XOR gates become 3 AND/OR-equivalent gates after
// the SOP-based flow (the baseline's fundamental weakness the paper
// exploits).
func TestXorCostInBaseline(t *testing.T) {
	spec := network.New("x")
	a := spec.AddPI("a")
	b := spec.AddPI("b")
	spec.AddPO("o", spec.AddGate(network.Xor, a, b))
	res, err := Run(context.Background(), spec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !equalNets(spec, res.Network) {
		t.Fatal("function changed")
	}
	// ab' + a'b: 2 AND + 1 OR = 3 gates (inverters free).
	if res.Stats.Gates2 != 3 {
		t.Errorf("XOR through baseline = %d gates2, want 3", res.Stats.Gates2)
	}
	if res.Stats.XORs != 0 {
		t.Error("baseline must not contain XOR gates")
	}
}

// TestParityChainBaseline: n-input parity explodes in two-level form but
// the multilevel baseline keeps it polynomial via extraction.
func TestParityChainBaseline(t *testing.T) {
	spec := network.New("p")
	prev := spec.AddPI("")
	for i := 1; i < 8; i++ {
		pi := spec.AddPI("")
		prev = spec.AddGate(network.Xor, prev, pi)
	}
	spec.AddPO("o", prev)
	res, err := Run(context.Background(), spec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !equalNets(spec, res.Network) {
		t.Fatal("function changed")
	}
	// 7 XORs à 3 gates = 21 if structure kept.
	if res.Stats.Gates2 > 24 {
		t.Errorf("parity baseline = %d gates2, want ≤ 24", res.Stats.Gates2)
	}
}

// TestResubUsesExistingNode: g = ab+c as a node, f = abd+cd should
// resubstitute into f = gd.
func TestResubUsesExistingNode(t *testing.T) {
	spec := network.New("r")
	a := spec.AddPI("a")
	b := spec.AddPI("b")
	c := spec.AddPI("c")
	d := spec.AddPI("d")
	g := spec.AddGate(network.Or, spec.AddGate(network.And, a, b), c)
	f := spec.AddGate(network.And, g, d)
	spec.AddPO("g", g)
	spec.AddPO("f", f)
	res, err := Run(context.Background(), spec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !equalNets(spec, res.Network) {
		t.Fatal("function changed")
	}
	// g shared: ab(1) + or(1) + and-with-d(1) = 3.
	if res.Stats.Gates2 > 3 {
		t.Errorf("gates2 = %d, want ≤ 3", res.Stats.Gates2)
	}
}

// TestConstantNode: constant outputs survive correctly.
func TestConstantNode(t *testing.T) {
	spec := network.New("c")
	a := spec.AddPI("a")
	spec.AddPO("z", spec.AddGate(network.And, a, spec.AddGate(network.Not, a)))
	res, err := Run(context.Background(), spec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !equalNets(spec, res.Network) {
		t.Fatal("constant function changed")
	}
}

// TestBaselineSoundnessSweep hammers the full baseline pipeline with many
// random networks (regression sweep for substitution corner cases like
// contradictory terms and duplicate XOR fanins).
func TestBaselineSoundnessSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := buildSpec(rng, 3+rng.Intn(4), 4+rng.Intn(16))
		res, err := Run(context.Background(), spec, DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !equalNets(spec, res.Network) {
			t.Fatalf("seed %d: function changed", seed)
		}
	}
}
