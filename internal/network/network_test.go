package network

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bdd"
	"repro/internal/cube"
)

// buildFullAdder returns a 3-in 2-out full adder network.
func buildFullAdder() *Network {
	n := New("fa")
	a := n.AddPI("a")
	b := n.AddPI("b")
	c := n.AddPI("cin")
	sum := n.AddGate(Xor, a, b, c)
	carry := n.AddGate(Or, n.AddGate(And, a, b), n.AddGate(And, c, n.AddGate(Xor, a, b)))
	n.AddPO("sum", sum)
	n.AddPO("cout", carry)
	return n
}

func TestFullAdderEval(t *testing.T) {
	n := buildFullAdder()
	for a := 0; a < 8; a++ {
		assign := cube.NewBitSet(3)
		ones := 0
		for v := 0; v < 3; v++ {
			if a&(1<<v) != 0 {
				assign.Set(v)
				ones++
			}
		}
		out := n.Eval(assign)
		if out[0] != (ones%2 == 1) {
			t.Errorf("sum(%03b) = %v", a, out[0])
		}
		if out[1] != (ones >= 2) {
			t.Errorf("cout(%03b) = %v", a, out[1])
		}
	}
}

func TestSimulateParallel(t *testing.T) {
	n := buildFullAdder()
	// Apply all 8 input combinations in one 64-bit word simulation.
	pi := make([]uint64, 3)
	for a := 0; a < 8; a++ {
		for v := 0; v < 3; v++ {
			if a&(1<<v) != 0 {
				pi[v] |= 1 << uint(a)
			}
		}
	}
	val := n.Simulate(pi)
	sum := val[n.POs[0].Gate]
	cout := val[n.POs[1].Gate]
	if sum&0xFF != 0b10010110 {
		t.Errorf("sum word = %08b", sum&0xFF)
	}
	if cout&0xFF != 0b11101000 {
		t.Errorf("cout word = %08b", cout&0xFF)
	}
}

// TestSimulateBlocks: PackPatterns puts pattern p in bit p%64 of block
// p/64 and zeroes the bits past the last pattern; SimulateBlocks agrees
// with Simulate block by block and with Eval pattern by pattern.
func TestSimulateBlocks(t *testing.T) {
	n := buildFullAdder()
	r := rand.New(rand.NewSource(1))
	pats := make([]cube.BitSet, 150)
	for i := range pats {
		pats[i] = cube.NewBitSet(3)
		for v := 0; v < 3; v++ {
			if r.Intn(2) == 0 {
				pats[i].Set(v)
			}
		}
	}
	blocks := PackPatterns(pats, 3)
	if len(blocks) != 3 {
		t.Fatalf("%d patterns packed into %d blocks, want 3", len(pats), len(blocks))
	}
	for v, w := range blocks[2] {
		if w>>(150%64) != 0 {
			t.Errorf("PI %d: bits past the last pattern are set: %064b", v, w)
		}
	}
	vals := n.SimulateBlocks(blocks)
	for b := range blocks {
		one := n.Simulate(blocks[b])
		for id := range one {
			if vals[b][id] != one[id] {
				t.Fatalf("block %d gate %d: SimulateBlocks %x, Simulate %x", b, id, vals[b][id], one[id])
			}
		}
	}
	for p, pat := range pats {
		for i, want := range n.Eval(pat) {
			if got := vals[p/64][n.POs[i].Gate]>>uint(p%64)&1 != 0; got != want {
				t.Errorf("pattern %d PO %d: simulated %v, Eval %v", p, i, got, want)
			}
		}
	}
}

func TestTopoOrder(t *testing.T) {
	n := buildFullAdder()
	pos := make(map[int]int)
	for i, id := range n.TopoOrder() {
		pos[id] = i
	}
	for _, g := range n.Gates {
		for _, f := range g.Fanins {
			if pos[f] >= pos[g.ID] {
				t.Fatalf("gate %d before its fanin %d", g.ID, f)
			}
		}
	}
}

func TestStatsXORCosting(t *testing.T) {
	n := New("x")
	a := n.AddPI("a")
	b := n.AddPI("b")
	x := n.AddGate(Xor, a, b)
	n.AddPO("o", x)
	s := n.CollectStats()
	// One 2-input XOR = 3 AND/OR gates = 6 lits (paper, Example 1).
	if s.Gates2 != 3 || s.Lits != 6 || s.XORs != 1 {
		t.Errorf("stats = %+v", s)
	}
	// A 3-input AND = 2 two-input gates.
	m := New("a3")
	p := m.AddPI("p")
	q := m.AddPI("q")
	r := m.AddPI("r")
	m.AddPO("o", m.AddGate(And, p, q, r))
	s2 := m.CollectStats()
	if s2.Gates2 != 2 || s2.Lits != 4 {
		t.Errorf("and3 stats = %+v", s2)
	}
}

func TestStatsIgnoresDanglingGates(t *testing.T) {
	n := New("d")
	a := n.AddPI("a")
	b := n.AddPI("b")
	n.AddGate(And, a, b) // dangling
	n.AddPO("o", a)
	if s := n.CollectStats(); s.Gates2 != 0 {
		t.Errorf("dangling gate counted: %+v", s)
	}
}

// rawGate appends a gate without AddGate's canonicalization/consing —
// the way a deserializer or an in-place optimization pass leaves the
// gate list. Tests use it to hand Strash real work.
func rawGate(n *Network, t GateType, fanins ...int) int {
	id := len(n.Gates)
	n.Gates = append(n.Gates, Gate{ID: id, Type: t, Fanins: append([]int(nil), fanins...)})
	return id
}

// shape renders the cone of gate id with PI names, e.g. "and(a,b)".
func shape(n *Network, id int) string {
	g := &n.Gates[id]
	if g.Type == PI {
		return g.Name
	}
	if len(g.Fanins) == 0 {
		return g.Type.String()
	}
	parts := make([]string, len(g.Fanins))
	for i, f := range g.Fanins {
		parts[i] = shape(n, f)
	}
	return g.Type.String() + "(" + strings.Join(parts, ",") + ")"
}

// TestStrashRules checks each rewrite rule of canonGate through Strash,
// on networks built with rawGate so that the rule, not the constructor,
// does the work. Each case builds the PO driver over PIs a and b and
// names the driver's shape after Strash.
func TestStrashRules(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(n *Network, a, b int) int
		want  string
	}{
		{"buffer-look-through", func(n *Network, a, b int) int {
			return rawGate(n, And, rawGate(n, Buf, a), b)
		}, "and(a,b)"},
		{"and-identity-constant", func(n *Network, a, b int) int {
			return rawGate(n, And, a, rawGate(n, Const1))
		}, "a"},
		{"or-identity-constant", func(n *Network, a, b int) int {
			return rawGate(n, Or, rawGate(n, Const0), a, b)
		}, "or(a,b)"},
		{"and-dominating-constant", func(n *Network, a, b int) int {
			return rawGate(n, And, a, rawGate(n, Const0))
		}, "const0"},
		{"nor-dominating-constant", func(n *Network, a, b int) int {
			return rawGate(n, Nor, a, rawGate(n, Const1))
		}, "const0"},
		{"nand-identity-constants-only", func(n *Network, a, b int) int {
			return rawGate(n, Nand, rawGate(n, Const1))
		}, "const0"},
		{"and-duplicate-fanins", func(n *Network, a, b int) int {
			return rawGate(n, And, b, a, b)
		}, "and(a,b)"},
		{"or-duplicate-fanins", func(n *Network, a, b int) int {
			return rawGate(n, Or, a, a)
		}, "a"},
		{"single-fanin-and", func(n *Network, a, b int) int {
			return rawGate(n, And, a)
		}, "a"},
		{"single-fanin-nor", func(n *Network, a, b int) int {
			return rawGate(n, Nor, b)
		}, "not(b)"},
		{"xor-pairwise-cancellation", func(n *Network, a, b int) int {
			return rawGate(n, Xor, a, b, a)
		}, "b"},
		{"xor-const0-absorbed", func(n *Network, a, b int) int {
			return rawGate(n, Xor, a, rawGate(n, Const0), b)
		}, "xor(a,b)"},
		{"xor-const1-flips-polarity", func(n *Network, a, b int) int {
			return rawGate(n, Xor, a, rawGate(n, Const1), b)
		}, "xnor(a,b)"},
		{"xnor-const1-flips-to-single-fanin", func(n *Network, a, b int) int {
			return rawGate(n, Xnor, rawGate(n, Const1), a)
		}, "a"},
		{"not-const0", func(n *Network, a, b int) int {
			return rawGate(n, Not, rawGate(n, Const0))
		}, "const1"},
		{"not-const1", func(n *Network, a, b int) int {
			return rawGate(n, Not, rawGate(n, Const1))
		}, "const0"},
		{"double-negation-in-fanin", func(n *Network, a, b int) int {
			return rawGate(n, And, rawGate(n, Not, rawGate(n, Not, a)), b)
		}, "and(a,b)"},
		{"double-negation-through-buffer", func(n *Network, a, b int) int {
			return rawGate(n, Not, rawGate(n, Buf, rawGate(n, Not, a)))
		}, "a"},
		{"po-through-buffer", func(n *Network, a, b int) int {
			return rawGate(n, Buf, rawGate(n, Buf, rawGate(n, Or, a, b)))
		}, "or(a,b)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := New(tc.name)
			a := n.AddPI("a")
			b := n.AddPI("b")
			n.AddPO("o", tc.build(n, a, b))
			m := bdd.New(2)
			before := n.ToBDDs(m)[0]
			n.Strash()
			if got := shape(n, n.POs[0].Gate); got != tc.want {
				t.Errorf("PO driver after Strash = %s, want %s", got, tc.want)
			}
			if n.ToBDDs(m)[0] != before {
				t.Error("Strash changed the function")
			}
		})
	}
}

func TestAddGateConsesDuplicates(t *testing.T) {
	n := New("h")
	a := n.AddPI("a")
	b := n.AddPI("b")
	g1 := n.AddGate(And, a, b)
	g2 := n.AddGate(And, b, a) // same gate, commuted
	if g1 != g2 {
		t.Errorf("AddGate(And,a,b)=%d but AddGate(And,b,a)=%d; want the same gate", g1, g2)
	}
	if x := n.AddGate(Xor, g1, g2); n.Gates[x].Type != Const0 {
		t.Errorf("Xor(g,g) should cons to Const0, got %v", n.Gates[x].Type)
	}
	if nn := n.AddGate(Not, n.AddGate(Not, a)); nn != a {
		t.Errorf("Not(Not(a)) should collapse to a, got %d", nn)
	}
	if bf := n.AddGate(Buf, g1); bf != g1 {
		t.Errorf("Buf(g) should collapse to g, got %d", bf)
	}
	if aa := n.AddGate(And, a, a); aa != a {
		t.Errorf("And(a,a) should collapse to a, got %d", aa)
	}
	one := n.AddGate(Const1)
	if g := n.AddGate(And, a, one, b); g != g1 {
		t.Errorf("And(a,1,b) should fold onto And(a,b)=%d, got %d", g1, g)
	}
	if g := n.AddGate(And, rawGate(n, Buf, a), b); g != g1 {
		t.Errorf("And(Buf(a),b) should fold onto And(a,b)=%d, got %d", g1, g)
	}
	if id, ok := n.FindGate(And, b, a); !ok || id != g1 {
		t.Errorf("FindGate(And,b,a) = %d,%v; want %d,true", id, ok, g1)
	}
	if _, ok := n.FindGate(Or, a, b); ok {
		t.Error("FindGate found an Or gate that was never created")
	}
}

func TestStrashMergesDuplicates(t *testing.T) {
	n := New("h")
	a := n.AddPI("a")
	b := n.AddPI("b")
	g1 := n.AddGate(And, a, b)
	g2 := rawGate(n, And, b, a) // duplicate behind the constructor's back
	x := rawGate(n, Xor, g1, g2)
	n.AddPO("o", x)
	merged := n.Strash()
	// g2 merges onto g1, and x's fanins then become equal — Strash now
	// simplifies Xor(g,g) to Const0 in the same pass.
	if merged != 1 {
		t.Errorf("merged = %d, want 1", merged)
	}
	if n.Gates[n.POs[0].Gate].Type != Const0 {
		t.Errorf("strash should give Const0, got %v", n.Gates[n.POs[0].Gate].Type)
	}
}

// Satellite regression: gates whose fanins become equal after a
// replacement must simplify (And(a,a)→a, Or(a,a)→a, Xor(a,a)→0) instead
// of surviving as degenerate two-input gates.
func TestStrashSimplifiesEqualFaninsAfterReplacement(t *testing.T) {
	for _, tc := range []struct {
		typ  GateType
		want func(n *Network, po int, a int) bool
		desc string
	}{
		{And, func(n *Network, po, a int) bool { return po == a }, "And(a,a) -> a"},
		{Or, func(n *Network, po, a int) bool { return po == a }, "Or(a,a) -> a"},
		{Xor, func(n *Network, po, a int) bool { return n.Gates[po].Type == Const0 }, "Xor(a,a) -> 0"},
	} {
		n := New("e")
		a := n.AddPI("a")
		b := n.AddPI("b")
		g1 := n.AddGate(Not, a)
		_ = b
		g2 := rawGate(n, Not, a) // duplicate inverter
		g := rawGate(n, tc.typ, g1, g2)
		n.AddPO("o", g)
		n.Strash()
		// After g2 merges onto g1 the gate's fanins are (g1, g1).
		if !tc.want(n, n.POs[0].Gate, g1) {
			t.Errorf("%s failed: PO gate %d (%v)", tc.desc, n.POs[0].Gate, n.Gates[n.POs[0].Gate].Type)
		}
	}
}

// Satellite regression: equivalent gates hidden behind Buf chains must
// merge — Strash looks through buffers.
func TestStrashLooksThroughBuffers(t *testing.T) {
	n := New("b")
	a := n.AddPI("a")
	b := n.AddPI("b")
	g1 := n.AddGate(And, a, b)
	buf := rawGate(n, Buf, a)
	g2 := rawGate(n, And, buf, b) // same as g1, but behind a buffer
	x := rawGate(n, Xor, g1, g2)
	n.AddPO("o", x)
	n.Strash()
	if n.Gates[n.POs[0].Gate].Type != Const0 {
		t.Errorf("gates behind buffers did not merge: PO is %v", n.Gates[n.POs[0].Gate].Type)
	}
}

// Satellite regression: Strash cancels double negations left by in-place
// passes.
func TestStrashCancelsDoubleNegation(t *testing.T) {
	n := New("nn")
	a := n.AddPI("a")
	b := n.AddPI("b")
	g := n.AddGate(And, a, b)
	n1 := rawGate(n, Not, g)
	n2 := rawGate(n, Not, n1)
	n.AddPO("o", n2)
	n.Strash()
	if n.POs[0].Gate != g {
		t.Errorf("Not(Not(g)) should strash to g=%d, got %d", g, n.POs[0].Gate)
	}
}

func TestGateTypeStringFallback(t *testing.T) {
	if s := And.String(); s != "and" {
		t.Errorf("And.String() = %q", s)
	}
	if s := GateType(99).String(); s != "gatetype(99)" {
		t.Errorf("GateType(99).String() = %q, want \"gatetype(99)\"", s)
	}
	if s := GateType(-1).String(); s != "gatetype(-1)" {
		t.Errorf("GateType(-1).String() = %q, want \"gatetype(-1)\"", s)
	}
}

// Satellite regression: stats are cone-reachable-only even when merged
// or dangling gates linger in Gates, and Compact removes them.
func TestCompactRemovesDeadGates(t *testing.T) {
	n := New("c")
	a := n.AddPI("a")
	b := n.AddPI("b")
	g1 := n.AddGate(And, a, b)
	g2 := rawGate(n, And, b, a)
	x := rawGate(n, Or, g1, g2)
	n.AddPO("o", x)
	n.Strash() // merges g2 away and collapses Or(g1,g1) -> g1
	if got := n.CollectStats(); got.Gates2 != 1 {
		t.Errorf("stats over cone = %+v, want Gates2=1 (dead gates must not count)", got)
	}
	removed := n.Compact()
	if removed != 2 {
		t.Errorf("Compact removed %d gates, want 2", removed)
	}
	if len(n.Gates) != 3 {
		t.Errorf("len(Gates) = %d after Compact, want 3 (2 PIs + 1 And)", len(n.Gates))
	}
	for i, g := range n.Gates {
		if g.ID != i {
			t.Errorf("gate %d has ID %d after renumbering", i, g.ID)
		}
	}
	if got := n.CollectStats(); got.Gates2 != 1 {
		t.Errorf("stats after Compact = %+v, want Gates2=1", got)
	}
}

func TestRebalanceXorTrees(t *testing.T) {
	n := New("x")
	var pis []int
	for i := 0; i < 8; i++ {
		pis = append(pis, n.AddPI(""))
	}
	// Build a maximally skewed XOR chain: (((p0^p1)^p2)^...)^p7.
	root := pis[0]
	for _, p := range pis[1:] {
		root = rawGate(n, Xor, root, p)
	}
	n.AddPO("o", root)
	if rebuilt := n.RebalanceXorTrees(); rebuilt != 1 {
		t.Fatalf("rebuilt = %d, want 1", rebuilt)
	}
	n.Compact()
	depth := make([]int, len(n.Gates))
	xors := 0
	for _, id := range n.TopoOrder() {
		g := &n.Gates[id]
		if g.Type == Xor {
			xors++
		}
		for _, f := range g.Fanins {
			if depth[f]+1 > depth[id] {
				depth[id] = depth[f] + 1
			}
		}
	}
	if xors != 7 {
		t.Errorf("rebalanced tree has %d XORs, want 7 (same gate count as the chain)", xors)
	}
	if d := depth[n.POs[0].Gate]; d != 3 {
		t.Errorf("depth after rebalance = %d, want log2(8) = 3", d)
	}
	// Cancellation across the chain: x ^ a ^ x = a.
	m := New("xc")
	a := m.AddPI("a")
	x := m.AddPI("x")
	c1 := rawGate(m, Xor, x, a)
	c2 := rawGate(m, Xor, c1, x)
	m.AddPO("o", c2)
	m.RebalanceXorTrees()
	m.Strash()
	if m.POs[0].Gate != a {
		t.Errorf("x^a^x should rebalance to a, got gate %d (%v)", m.POs[0].Gate, m.Gates[m.POs[0].Gate].Type)
	}
}

func TestCanonicalRebuild(t *testing.T) {
	n := New("c")
	a := n.AddPI("a")
	b := n.AddPI("b")
	g1 := n.AddGate(And, a, b)
	g2 := rawGate(n, And, b, a)
	n1 := rawGate(n, Not, g2)
	n2 := rawGate(n, Not, n1)
	n.AddPO("o", n2)
	c := n.Canonical()
	if len(c.Gates) != 3 {
		t.Errorf("canonical form has %d gates, want 3 (2 PIs + 1 And)", len(c.Gates))
	}
	if c.POs[0].Name != "o" {
		t.Errorf("PO name lost: %q", c.POs[0].Name)
	}
	m := bdd.New(2)
	before := n.ToBDDs(m)
	after := c.ToBDDs(m)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("Canonical changed output %d", i)
		}
	}
	if len(n.Gates) != 6 {
		t.Errorf("receiver mutated: %d gates", len(n.Gates))
	}
	_ = g1
}

func TestToBDDsMatchesEval(t *testing.T) {
	n := buildFullAdder()
	m := bdd.New(3)
	outs := n.ToBDDs(m)
	for a := 0; a < 8; a++ {
		assign := cube.NewBitSet(3)
		for v := 0; v < 3; v++ {
			if a&(1<<v) != 0 {
				assign.Set(v)
			}
		}
		ev := n.Eval(assign)
		for i, f := range outs {
			if m.Eval(f, assign) != ev[i] {
				t.Fatalf("BDD/eval mismatch at %03b output %d", a, i)
			}
		}
	}
}

// TestGateBDDsMatchesSimulation checks every gate's BDD, under a
// permuted variable order, against bit-parallel simulation.
func TestGateBDDsMatchesSimulation(t *testing.T) {
	n := buildFullAdder()
	level := []int{2, 0, 1}
	m := bdd.New(3)
	gates := n.GateBDDs(m, level)
	words := make([]uint64, 3)
	for a := 0; a < 8; a++ {
		for v := 0; v < 3; v++ {
			if a&(1<<v) != 0 {
				words[v] |= 1 << a
			}
		}
	}
	sim := n.Simulate(words)
	for a := 0; a < 8; a++ {
		assign := cube.NewBitSet(3)
		for v := 0; v < 3; v++ {
			if a&(1<<v) != 0 {
				assign.Set(level[v])
			}
		}
		for _, id := range n.TopoOrder() {
			if m.Eval(gates[id], assign) != (sim[id]>>a&1 == 1) {
				t.Fatalf("gate %d: BDD/simulation mismatch at %03b", id, a)
			}
		}
	}
}

func TestBalancedTree(t *testing.T) {
	n := New("t")
	var ids []int
	for i := 0; i < 7; i++ {
		ids = append(ids, n.AddPI("p"))
	}
	root := n.BalancedTree(Xor, ids)
	n.AddPO("o", root)
	// 7-input parity via 6 two-input XORs.
	count := 0
	for _, id := range n.TopoOrder() {
		if n.Gates[id].Type == Xor {
			count++
		}
	}
	if count != 6 {
		t.Errorf("balanced tree has %d XORs, want 6", count)
	}
	// Depth should be ceil(log2(7)) = 3.
	depth := make([]int, len(n.Gates))
	for _, id := range n.TopoOrder() {
		for _, f := range n.Gates[id].Fanins {
			if depth[f]+1 > depth[id] {
				depth[id] = depth[f] + 1
			}
		}
	}
	if depth[root] != 3 {
		t.Errorf("tree depth = %d, want 3", depth[root])
	}
}

func randomNetwork(rng *rand.Rand, nPIs, nGates int) *Network {
	n := New("r")
	for i := 0; i < nPIs; i++ {
		n.AddPI("")
	}
	types := []GateType{And, Or, Xor, Nand, Nor, Not, Xnor}
	for i := 0; i < nGates; i++ {
		t := types[rng.Intn(len(types))]
		k := 1
		if t != Not {
			k = 2 + rng.Intn(2)
		}
		fanins := make([]int, k)
		for j := range fanins {
			fanins[j] = rng.Intn(len(n.Gates))
		}
		n.AddGate(t, fanins...)
	}
	n.AddPO("o", len(n.Gates)-1)
	// Consing can collapse most requested gates onto existing ones, so
	// clamp the second PO into the valid ID range.
	p := len(n.Gates) - 1 - rng.Intn(nGates/2+1)
	if p < 0 {
		p = 0
	}
	n.AddPO("p", p)
	return n
}

// Property: Strash preserves the network function.
func TestQuickSweepStrashPreserve(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nPIs := 3 + rng.Intn(3)
		n := randomNetwork(rng, nPIs, 5+rng.Intn(15))
		m := bdd.New(nPIs)
		before := n.ToBDDs(m)
		n.Strash()
		after := n.ToBDDs(m)
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: BLIF write/read round-trips the function.
func TestQuickBLIFRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nPIs := 3 + rng.Intn(3)
		n := randomNetwork(rng, nPIs, 4+rng.Intn(10))
		// Name PIs uniquely for BLIF.
		for i, pi := range n.PIs {
			n.Gates[pi].Name = "in" + string(rune('a'+i))
		}
		var buf bytes.Buffer
		if err := n.WriteBLIF(&buf); err != nil {
			return false
		}
		back, err := ReadBLIF(&buf)
		if err != nil {
			return false
		}
		if len(back.PIs) != len(n.PIs) || len(back.POs) != len(n.POs) {
			return false
		}
		m := bdd.New(nPIs)
		a := n.ToBDDs(m)
		b := back.ToBDDs(m)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReadBLIFConstAndComplement(t *testing.T) {
	src := `
.model c
.inputs a b
.outputs z k
# z = complement of a*b via 0-phase rows
.names a b z
11 0
.names k
1
.end
`
	n, err := ReadBLIF(bytes.NewBufferString(src))
	if err != nil {
		t.Fatal(err)
	}
	assign := cube.NewBitSet(2)
	assign.Set(0)
	assign.Set(1)
	out := n.Eval(assign)
	if out[0] != false || out[1] != true {
		t.Errorf("eval = %v, want [false true]", out)
	}
	assign2 := cube.NewBitSet(2)
	out2 := n.Eval(assign2)
	if out2[0] != true {
		t.Error("NAND(0,0) should be 1")
	}
}

func TestCloneIndependence(t *testing.T) {
	n := buildFullAdder()
	c := n.Clone()
	c.Gates[3].Type = And
	if n.Gates[3].Type == And {
		t.Error("clone shares gate storage")
	}
}
