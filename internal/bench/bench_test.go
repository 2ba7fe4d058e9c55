package bench

import (
	"context"
	"testing"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/sisbase"
	"repro/internal/verify"
)

// TestCircuitIOCounts: every circuit matches the paper's I/O column.
func TestCircuitIOCounts(t *testing.T) {
	want := map[string][2]int{
		"5xp1": {7, 10}, "9sym": {9, 1}, "adr4": {8, 5}, "add6": {12, 7},
		"addm4": {9, 8}, "bcd-div3": {4, 4}, "cc": {21, 20}, "co14": {14, 1},
		"cm163a": {16, 5}, "cm82a": {5, 3}, "cm85a": {11, 3}, "cmb": {16, 4},
		"f2": {4, 4}, "f51m": {8, 8}, "frg1": {28, 3}, "i1": {25, 13},
		"i3": {132, 6}, "i4": {192, 6}, "i5": {133, 66}, "m181": {15, 9},
		"majority": {5, 1}, "misg": {56, 23}, "mish": {94, 34}, "mlp4": {8, 8},
		"my_adder": {33, 17}, "parity": {16, 1}, "pcle": {19, 9},
		"pcler8": {27, 17}, "pm1": {16, 13}, "radd": {8, 5}, "rd53": {5, 3},
		"rd73": {7, 3}, "rd84": {8, 4}, "shift": {19, 16}, "sqr6": {6, 12},
		"squar5": {5, 8}, "sym10": {10, 1}, "t481": {16, 1}, "tcon": {17, 16},
		"xor10": {10, 1}, "z4ml": {7, 4},
	}
	circuits := Circuits()
	if len(circuits) != 41 {
		t.Fatalf("got %d circuits, want 41 (Table 2)", len(circuits))
	}
	for _, c := range circuits {
		w, ok := want[c.Name]
		if !ok {
			t.Errorf("unexpected circuit %s", c.Name)
			continue
		}
		if c.In != w[0] || c.Out != w[1] {
			t.Errorf("%s: declared I/O %d/%d, want %d/%d", c.Name, c.In, c.Out, w[0], w[1])
		}
		if c.Name == "i3" || c.Name == "i4" || c.Name == "i5" ||
			c.Name == "misg" || c.Name == "mish" {
			continue // big ones are built in TestBigCircuitsBuild
		}
		net := c.Build()
		if net.NumPIs() != c.In || net.NumPOs() != c.Out {
			t.Errorf("%s: built I/O %d/%d, want %d/%d", c.Name, net.NumPIs(), net.NumPOs(), c.In, c.Out)
		}
	}
}

func TestBigCircuitsBuild(t *testing.T) {
	for _, name := range []string{"i3", "i4", "i5", "misg", "mish"} {
		c, _ := ByName(name)
		net := c.Build()
		if net.NumPIs() != c.In || net.NumPOs() != c.Out {
			t.Errorf("%s: built I/O %d/%d, want %d/%d", name, net.NumPIs(), net.NumPOs(), c.In, c.Out)
		}
	}
}

// TestBuildDeterministic: generators must be reproducible.
func TestBuildDeterministic(t *testing.T) {
	for _, name := range []string{"z4ml", "mlp4", "cc", "pcle", "t481"} {
		c, _ := ByName(name)
		a := c.Build()
		b := c.Build()
		m := bdd.New(a.NumPIs())
		fa := a.ToBDDs(m)
		fb := b.ToBDDs(m)
		for i := range fa {
			if fa[i] != fb[i] {
				t.Errorf("%s: non-deterministic build (output %d)", name, i)
			}
		}
	}
}

// TestKnownFunctions: spot-check the arithmetic reconstructions.
func TestKnownFunctions(t *testing.T) {
	check := func(name string, inputs uint64, want []bool) {
		t.Helper()
		c, _ := ByName(name)
		net := c.Build()
		words := make([]uint64, net.NumPIs())
		for v := range words {
			if inputs&(1<<uint(v)) != 0 {
				words[v] = 1
			}
		}
		val := net.Simulate(words)
		for i, po := range net.POs {
			if (val[po.Gate]&1 != 0) != want[i] {
				t.Errorf("%s(%b) output %d = %v, want %v", name, inputs, i, !want[i], want[i])
			}
		}
	}
	// z4ml: a=3 (a0=1,a1=1), b=1, cin=1 → 3+1+1 = 5 = 101.
	// Interleaved: a0,b0,a1,b1,a2,b2,cin = bits 0..6.
	// a=3: a0=1,a1=1 → bits 0,2; b=1: b0=1 → bit 1; cin → bit 6.
	check("z4ml", 0b1000111, []bool{true, false, true, false})
	// mlp4: a=5 (a0,a2 → interleaved bits 0,4), b=3 (b0,b1 → bits 1,3)
	// → 5×3 = 15 = 00001111.
	check("mlp4", 0b11011, []bool{true, true, true, true, false, false, false, false})
	// rd53: 3 ones → 011.
	check("rd53", 0b10101, []bool{true, true, false})
	// majority: 3 of 5.
	check("majority", 0b10101, []bool{true})
	// parity: even ones → 0.
	check("parity", 0b11, []bool{false})
}

// TestBothFlowsEquivalent runs both flows on a representative subset and
// verifies both against the specification (the full set is covered by
// TestFullTable2 / cmd/rmbench).
func TestBothFlowsEquivalent(t *testing.T) {
	for _, name := range []string{"z4ml", "rd73", "bcd-div3", "cm85a", "pcle", "tcon", "sqr6"} {
		c, _ := ByName(name)
		spec := c.Build()
		ours, err := core.Synthesize(context.Background(), spec, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s ours: %v", name, err)
		}
		base, err := sisbase.Run(context.Background(), spec, sisbase.DefaultOptions())
		if err != nil {
			t.Fatalf("%s baseline: %v", name, err)
		}
		for flow, net := range map[string]*network.Network{"ours": ours.Network, "baseline": base.Network} {
			eq, err := verify.Equivalent(spec, net)
			if err != nil {
				t.Fatalf("%s %s: %v", name, flow, err)
			}
			if !eq {
				t.Errorf("%s: %s result not equivalent", name, flow)
			}
		}
	}
}

// TestExample1T481 asserts the paper's headline through the harness.
func TestExample1T481(t *testing.T) {
	c, _ := ByName("t481")
	spec := c.Build()
	res, err := core.Synthesize(context.Background(), spec, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if eq, _ := verify.Equivalent(spec, res.Network); !eq {
		t.Fatal("t481 not equivalent")
	}
	if res.Stats.Gates2 > 25 {
		t.Errorf("t481 = %d gates, paper reaches 25", res.Stats.Gates2)
	}
}

// TestExample2Z4ml asserts the adder result through the harness.
func TestExample2Z4ml(t *testing.T) {
	c, _ := ByName("z4ml")
	row := RunCircuit(context.Background(), c, DefaultOptions())
	if row.Err != "" {
		t.Fatal(row.Err)
	}
	// Mapped literal count must reach the paper's 42 for "ours".
	if row.OursMapLits > 42 {
		t.Errorf("z4ml mapped lits = %d, paper's flow reaches 42", row.OursMapLits)
	}
	if row.ImproveLits <= 0 {
		t.Errorf("z4ml shows no improvement (%.1f%%)", row.ImproveLits)
	}
}

// TestParityMapsToXorTree: parity must map 1:1 onto XOR cells for both
// flows (paper Table 2: 15 gates / 60 lits, 0% improvement).
func TestParityMapsToXorTree(t *testing.T) {
	c, _ := ByName("parity")
	row := RunCircuit(context.Background(), c, DefaultOptions())
	if row.Err != "" {
		t.Fatal(row.Err)
	}
	if row.OursGates != 15 || row.OursMapLits != 60 {
		t.Errorf("parity ours mapped = %d gates / %d lits, want 15/60", row.OursGates, row.OursMapLits)
	}
	if row.SISGates != 15 || row.SISMapLits != 60 {
		t.Errorf("parity baseline mapped = %d gates / %d lits, want 15/60", row.SISGates, row.SISMapLits)
	}
	if row.ImproveLits != 0 {
		t.Errorf("parity improvement = %.1f%%, want 0 (paper)", row.ImproveLits)
	}
}
