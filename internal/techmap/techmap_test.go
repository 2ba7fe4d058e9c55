package techmap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/network"
)

// evalSubject computes all subject node values for a PI assignment.
func evalSubject(s *Subject, pi []bool) []bool {
	val := make([]bool, len(s.Nodes))
	piIdx := 0
	for i, nd := range s.Nodes {
		if nd.IsPI {
			val[i] = pi[piIdx]
			piIdx++
			continue
		}
		if nd.Inv {
			val[i] = !val[nd.A]
		} else {
			val[i] = !(val[nd.A] && val[nd.B])
		}
	}
	return val
}

// cellFunc evaluates a library cell by name.
func cellFunc(name string, in []bool) bool {
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	switch name {
	case "inv":
		return !in[0]
	case "nand2":
		return !(in[0] && in[1])
	case "nor2":
		return !(in[0] || in[1])
	case "and2":
		return in[0] && in[1]
	case "or2":
		return in[0] || in[1]
	case "nand3":
		return !(in[0] && in[1] && in[2])
	case "nor3":
		return !(in[0] || in[1] || in[2])
	case "nand4":
		return !(in[0] && in[1] && in[2] && in[3])
	case "nor4":
		return !(in[0] || in[1] || in[2] || in[3])
	case "xor2":
		return (b2i(in[0]) ^ b2i(in[1])) == 1
	case "xnor2":
		return (b2i(in[0]) ^ b2i(in[1])) == 0
	case "aoi21":
		return !((in[0] && in[1]) || in[2])
	case "aoi22":
		return !((in[0] && in[1]) || (in[2] && in[3]))
	case "oai21":
		return !((in[0] || in[1]) && in[2])
	case "oai22":
		return !((in[0] || in[1]) && (in[2] || in[3]))
	}
	panic("unknown cell " + name)
}

// checkMapping verifies that the mapped netlist computes the same PO
// values as the subject graph on random assignments.
func checkMapping(t *testing.T, net *network.Network, res *Result, trials int) {
	t.Helper()
	subj := res.Subject
	rng := rand.New(rand.NewSource(17))
	// Cell value memo keyed by root node.
	cellByRoot := make(map[int]MappedCell)
	for _, c := range res.Cells {
		cellByRoot[c.Root] = c
	}
	for trial := 0; trial < trials; trial++ {
		pi := make([]bool, len(subj.PIs))
		for i := range pi {
			pi[i] = rng.Intn(2) == 1
		}
		ref := evalSubject(subj, pi)
		// Evaluate cells bottom-up with memoization.
		memo := make(map[int]bool)
		var eval func(v int) bool
		eval = func(v int) bool {
			nd := subj.Nodes[v]
			if nd.IsPI {
				return ref[v]
			}
			if b, ok := memo[v]; ok {
				return b
			}
			c, ok := cellByRoot[v]
			if !ok {
				t.Fatalf("node %d has no covering cell", v)
			}
			in := make([]bool, len(c.Inputs))
			for i, cin := range c.Inputs {
				in[i] = eval(cin)
			}
			b := cellFunc(c.Cell, in)
			memo[v] = b
			return b
		}
		for _, po := range subj.POs {
			if po.Node < 0 {
				continue
			}
			if eval(po.Node) != ref[po.Node] {
				t.Fatalf("mapped netlist differs at PO %s (trial %d)", po.Name, trial)
			}
		}
	}
}

func TestMapSingleXor(t *testing.T) {
	net := network.New("x")
	a := net.AddPI("a")
	b := net.AddPI("b")
	net.AddPO("o", net.AddGate(network.Xor, a, b))
	res, err := Map(net, Library())
	if err != nil {
		t.Fatal(err)
	}
	if res.Gates != 1 || res.Cells[0].Cell != "xor2" {
		t.Errorf("expected one xor2 cell, got %s", res)
	}
	if res.Lits != 4 {
		t.Errorf("xor2 lits = %d, want 4", res.Lits)
	}
	checkMapping(t, net, res, 8)
}

// TestMapParity16 reproduces the paper's parity row: 16-input parity maps
// to 15 XOR cells, 60 literals (Table 2: gates 15, lits 60 for both SIS
// and the paper's flow).
func TestMapParity16(t *testing.T) {
	net := network.New("parity")
	ids := make([]int, 16)
	for i := range ids {
		ids[i] = net.AddPI("")
	}
	net.AddPO("o", net.BalancedTree(network.Xor, ids))
	res, err := Map(net, Library())
	if err != nil {
		t.Fatal(err)
	}
	if res.Gates != 15 || res.Lits != 60 {
		t.Errorf("parity: gates=%d lits=%d, want 15/60 (paper Table 2)", res.Gates, res.Lits)
	}
	for _, c := range res.Cells {
		if c.Cell != "xor2" {
			t.Errorf("non-xor cell %s in parity mapping", c.Cell)
		}
	}
	checkMapping(t, net, res, 20)
}

func TestMapAoi22(t *testing.T) {
	// ¬(ab + cd) should map to a single aoi22.
	net := network.New("aoi")
	a := net.AddPI("a")
	b := net.AddPI("b")
	c := net.AddPI("c")
	d := net.AddPI("d")
	or := net.AddGate(network.Or, net.AddGate(network.And, a, b), net.AddGate(network.And, c, d))
	net.AddPO("o", net.AddGate(network.Not, or))
	res, err := Map(net, Library())
	if err != nil {
		t.Fatal(err)
	}
	if res.Gates != 1 || res.Cells[0].Cell != "aoi22" {
		t.Errorf("want single aoi22, got %s", res)
	}
	checkMapping(t, net, res, 16)
}

func TestMapNand3Chain(t *testing.T) {
	// ¬(abc) = nand3, one cell.
	net := network.New("n3")
	a := net.AddPI("a")
	b := net.AddPI("b")
	c := net.AddPI("c")
	net.AddPO("o", net.AddGate(network.Nand, a, b, c))
	res, err := Map(net, Library())
	if err != nil {
		t.Fatal(err)
	}
	if res.Gates != 1 || res.Cells[0].Cell != "nand3" {
		t.Errorf("want single nand3, got %s", res)
	}
	checkMapping(t, net, res, 8)
}

func TestMapAnd4(t *testing.T) {
	// abcd: nand4 + inv beats 3 and2 (area 5 vs 9).
	net := network.New("a4")
	var ids []int
	for i := 0; i < 4; i++ {
		ids = append(ids, net.AddPI(""))
	}
	net.AddPO("o", net.AddGate(network.And, ids...))
	res, err := Map(net, Library())
	if err != nil {
		t.Fatal(err)
	}
	if res.Area > 5 {
		t.Errorf("and4 area = %.0f, want ≤ 5 (nand4+inv): %s", res.Area, res)
	}
	checkMapping(t, net, res, 16)
}

func TestMapSharedNodeIsRoot(t *testing.T) {
	// A shared AND must be mapped once and referenced twice.
	net := network.New("s")
	a := net.AddPI("a")
	b := net.AddPI("b")
	c := net.AddPI("c")
	d := net.AddPI("d")
	ab := net.AddGate(network.And, a, b)
	net.AddPO("o1", net.AddGate(network.Or, ab, c))
	net.AddPO("o2", net.AddGate(network.Or, ab, d))
	res, err := Map(net, Library())
	if err != nil {
		t.Fatal(err)
	}
	checkMapping(t, net, res, 16)
	// and2 + 2 × or2 = 3 cells (or nand-based equivalents ≤ 5 cells).
	if res.Gates > 5 {
		t.Errorf("too many cells: %s", res)
	}
}

func TestMapConstantPO(t *testing.T) {
	net := network.New("c")
	net.AddPI("a")
	net.AddPO("z", net.AddGate(network.Const0))
	res, err := Map(net, Library())
	if err != nil {
		t.Fatal(err)
	}
	if res.Constants != 1 || res.Gates != 0 {
		t.Errorf("constant PO should be a tie-off: %s", res)
	}
}

// Property: mapping preserves function on random networks.
func TestQuickMapPreserves(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nPI := 3 + rng.Intn(4)
		net := network.New("r")
		for i := 0; i < nPI; i++ {
			net.AddPI("")
		}
		types := []network.GateType{network.And, network.Or, network.Xor, network.Not, network.Nand, network.Nor, network.Xnor}
		for i := 0; i < 4+rng.Intn(14); i++ {
			ty := types[rng.Intn(len(types))]
			k := 2
			if ty == network.Not {
				k = 1
			} else if rng.Intn(3) == 0 {
				k = 3
			}
			fanins := make([]int, k)
			for j := range fanins {
				fanins[j] = rng.Intn(len(net.Gates))
			}
			net.AddGate(ty, fanins...)
		}
		net.AddPO("o", len(net.Gates)-1)
		res, err := Map(net, Library())
		if err != nil {
			return false
		}
		// Inline checkMapping logic with a dummy testing shim.
		subj := res.Subject
		cellByRoot := make(map[int]MappedCell)
		for _, c := range res.Cells {
			cellByRoot[c.Root] = c
		}
		for trial := 0; trial < 16; trial++ {
			pi := make([]bool, len(subj.PIs))
			for i := range pi {
				pi[i] = rng.Intn(2) == 1
			}
			ref := evalSubject(subj, pi)
			memo := make(map[int]bool)
			var eval func(v int) (bool, bool)
			eval = func(v int) (bool, bool) {
				nd := subj.Nodes[v]
				if nd.IsPI {
					return ref[v], true
				}
				if b, ok := memo[v]; ok {
					return b, true
				}
				c, ok := cellByRoot[v]
				if !ok {
					return false, false
				}
				in := make([]bool, len(c.Inputs))
				for i, cin := range c.Inputs {
					var ok2 bool
					in[i], ok2 = eval(cin)
					if !ok2 {
						return false, false
					}
				}
				b := cellFunc(c.Cell, in)
				memo[v] = b
				return b, true
			}
			for _, po := range subj.POs {
				if po.Node < 0 {
					continue
				}
				got, ok := eval(po.Node)
				if !ok || got != ref[po.Node] {
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
