package verify

import (
	"testing"

	"repro/internal/network"
)

func twoNets() (*network.Network, *network.Network) {
	a := network.New("a")
	x := a.AddPI("x")
	y := a.AddPI("y")
	a.AddPO("o", a.AddGate(network.Xor, x, y))

	b := network.New("b")
	x2 := b.AddPI("x")
	y2 := b.AddPI("y")
	// x⊕y as (x+y)(xy)'
	or := b.AddGate(network.Or, x2, y2)
	nand := b.AddGate(network.Nand, x2, y2)
	b.AddPO("o", b.AddGate(network.And, or, nand))
	return a, b
}

func TestEquivalentTrue(t *testing.T) {
	a, b := twoNets()
	eq, err := Equivalent(a, b)
	if err != nil || !eq {
		t.Fatalf("eq=%v err=%v, want true", eq, err)
	}
	if ok, err := Exhaustive(a, b); err != nil || !ok {
		t.Errorf("Exhaustive disagrees: ok=%v err=%v", ok, err)
	}
	if o, err := RandomCheck(a, b, 256, 1); err != nil || o != -1 {
		t.Errorf("RandomCheck disagrees: o=%d err=%v", o, err)
	}
	if ok, err := Simulate(a, b, 256); err != nil || !ok {
		t.Errorf("Simulate disagrees: ok=%v err=%v", ok, err)
	}
}

func TestEquivalentFalse(t *testing.T) {
	a, _ := twoNets()
	c := network.New("c")
	x := c.AddPI("x")
	y := c.AddPI("y")
	c.AddPO("o", c.AddGate(network.Or, x, y))
	eq, err := Equivalent(a, c)
	if err != nil || eq {
		t.Fatalf("eq=%v err=%v, want false", eq, err)
	}
	if ok, err := Exhaustive(a, c); err != nil || ok {
		t.Errorf("Exhaustive says equal: ok=%v err=%v", ok, err)
	}
	if ok, err := Simulate(a, c, 256); err != nil || ok {
		t.Errorf("Simulate says equal: ok=%v err=%v", ok, err)
	}
}

// TestSimulateWide covers Simulate past its exhaustive range, where it
// checks fixed-seed random vectors: a 20-input parity chain against
// itself and against a copy whose last XOR is an OR.
func TestSimulateWide(t *testing.T) {
	chain := func(last network.GateType) *network.Network {
		n := network.New("chain")
		acc := n.AddPI("")
		for i := 1; i < 20; i++ {
			ty := network.Xor
			if i == 19 {
				ty = last
			}
			acc = n.AddGate(ty, acc, n.AddPI(""))
		}
		n.AddPO("o", acc)
		return n
	}
	a := chain(network.Xor)
	if ok, err := Simulate(a, chain(network.Xor), 256); err != nil || !ok {
		t.Errorf("equal chains: ok=%v err=%v", ok, err)
	}
	if ok, err := Simulate(a, chain(network.Or), 256); err != nil || ok {
		t.Errorf("different chains: ok=%v err=%v", ok, err)
	}
}

func TestShapeMismatch(t *testing.T) {
	a, _ := twoNets()

	// PI-count mismatch: one input instead of two.
	d := network.New("d")
	d.AddPI("x")
	d.AddPO("o", d.PIs[0])

	// PO-count mismatch: same inputs, an extra output. Walking a's PO
	// list over e's (or vice versa) would index out of range without
	// the precondition check.
	e := network.New("e")
	ex := e.AddPI("x")
	ey := e.AddPI("y")
	e.AddPO("o", e.AddGate(network.Xor, ex, ey))
	e.AddPO("p", e.AddGate(network.And, ex, ey))

	for _, tc := range []struct {
		name string
		bad  *network.Network
	}{
		{"pi-mismatch", d},
		{"po-mismatch", e},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Equivalent(a, tc.bad); err == nil {
				t.Error("Equivalent: expected count error")
			}
			if _, err := RandomCheck(a, tc.bad, 64, 1); err == nil {
				t.Error("RandomCheck: expected count error")
			}
			if _, err := Exhaustive(a, tc.bad); err == nil {
				t.Error("Exhaustive: expected count error")
			}
			if _, err := Simulate(a, tc.bad, 64); err == nil {
				t.Error("Simulate: expected count error")
			}
			// Symmetric order must error too, not panic.
			if _, err := RandomCheck(tc.bad, a, 64, 1); err == nil {
				t.Error("RandomCheck reversed: expected count error")
			}
			if _, err := Exhaustive(tc.bad, a); err == nil {
				t.Error("Exhaustive reversed: expected count error")
			}
		})
	}
}
