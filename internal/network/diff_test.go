package network

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bdd"
)

// messyRandomNetwork builds a randomized network through a mix of consed
// AddGate calls and raw appends (duplicates, buffer chains, inverter
// chains, degenerate equal-fanin gates), so the cleanup passes get the
// full menu of shapes an in-place mutator or deserializer can produce.
func messyRandomNetwork(rng *rand.Rand, nPIs, nGates int) *Network {
	n := New("m")
	for i := 0; i < nPIs; i++ {
		n.AddPI(fmt.Sprintf("i%d", i))
	}
	types := []GateType{And, Or, Xor, Nand, Nor, Xnor, Not, Buf}
	for i := 0; i < nGates; i++ {
		t := types[rng.Intn(len(types))]
		k := 1
		if t != Not && t != Buf {
			k = 2 + rng.Intn(2)
		}
		fanins := make([]int, k)
		for j := range fanins {
			fanins[j] = rng.Intn(len(n.Gates))
		}
		switch rng.Intn(4) {
		case 0:
			n.AddGate(t, fanins...)
		case 1:
			// Raw append, possibly duplicating an existing gate's shape.
			rawGate(n, t, fanins...)
		case 2:
			// Duplicate fanin: And(x,x) / Xor(x,x) shapes.
			if k >= 2 {
				fanins[1] = fanins[0]
			}
			rawGate(n, t, fanins...)
		case 3:
			// Inverter or buffer chain on a random driver.
			g := fanins[0]
			for d := 0; d < 1+rng.Intn(3); d++ {
				if rng.Intn(2) == 0 {
					g = rawGate(n, Not, g)
				} else {
					g = rawGate(n, Buf, g)
				}
			}
		}
	}
	nPOs := 1 + rng.Intn(3)
	for i := 0; i < nPOs; i++ {
		n.AddPO(fmt.Sprintf("o%d", i), rng.Intn(len(n.Gates)))
	}
	return n
}

// passes lists the cleanup passes under differential test, applied
// cumulatively in pipeline order.
var passes = []struct {
	name  string
	apply func(n *Network)
}{
	{"strash", func(n *Network) { n.Strash() }},
	{"rebalance-xor", func(n *Network) { n.RebalanceXorTrees() }},
	{"strash-again", func(n *Network) { n.Strash() }},
	{"compact", func(n *Network) { n.Compact() }},
	{"canonical", func(n *Network) { *n = *n.Canonical() }},
}

// TestDifferentialCleanupPasses drives randomized messy networks through
// every cleanup pass, checking after each one that (a) 64-bit random
// vector simulation agrees with the original on every PO and (b) the PO
// BDDs are exactly equal — the construction-independence guarantee the
// hash-consed core rests on.
func TestDifferentialCleanupPasses(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nPIs := 2 + rng.Intn(5)
		n := messyRandomNetwork(rng, nPIs, 4+rng.Intn(20))

		m := bdd.New(nPIs)
		wantBDD := n.ToBDDs(m)
		words := make([]uint64, nPIs)
		for i := range words {
			words[i] = rng.Uint64()
		}
		val := n.Simulate(words)
		wantSim := make([]uint64, len(n.POs))
		for i, po := range n.POs {
			wantSim[i] = val[po.Gate]
		}

		for _, p := range passes {
			p.apply(n)
			val := n.Simulate(words)
			for i, po := range n.POs {
				if val[po.Gate] != wantSim[i] {
					t.Fatalf("seed %d: pass %s changed simulation of PO %d", seed, p.name, i)
				}
			}
			got := n.ToBDDs(m)
			for i := range got {
				if got[i] != wantBDD[i] {
					t.Fatalf("seed %d: pass %s changed BDD of PO %d", seed, p.name, i)
				}
			}
		}
	}
}

// blifSeedCorpus holds the parser edge cases the fuzzers found
// interesting: POs driven directly by PIs, by constants, complemented
// covers, and shared drivers under different output names.
var blifSeedCorpus = []struct {
	name string
	src  string
}{
	{"po-is-pi", `
.model p
.inputs a b
.outputs z
.names a z
1 1
.end
`},
	{"po-const0", `
.model c0
.inputs a
.outputs z
.names z
.end
`},
	{"po-const1", `
.model c1
.inputs a
.outputs z
.names z
1
.end
`},
	{"two-pos-one-driver", `
.model d
.inputs a b
.outputs y z
.names a b y
11 1
.names a b z
11 1
.end
`},
	{"complemented-cover", `
.model n
.inputs a b
.outputs z
.names a b z
11 0
.end
`},
	{"const-feeding-gate", `
.model cf
.inputs a
.outputs z
.names one
1
.names a one z
11 1
.end
`},
}

// TestBLIFRoundTripSeeds round-trips each corpus case through
// WriteBLIF/ReadBLIF and the cleanup passes, checking function
// preservation by BDD equality.
func TestBLIFRoundTripSeeds(t *testing.T) {
	for _, tc := range blifSeedCorpus {
		t.Run(tc.name, func(t *testing.T) {
			n, err := ReadBLIF(bytes.NewBufferString(tc.src))
			if err != nil {
				t.Fatal(err)
			}
			m := bdd.New(len(n.PIs))
			want := n.ToBDDs(m)

			var buf bytes.Buffer
			if err := n.WriteBLIF(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := ReadBLIF(&buf)
			if err != nil {
				t.Fatalf("re-read: %v\n%s", err, buf.String())
			}
			if len(back.PIs) != len(n.PIs) || len(back.POs) != len(n.POs) {
				t.Fatalf("interface changed: %d/%d PIs, %d/%d POs",
					len(back.PIs), len(n.PIs), len(back.POs), len(n.POs))
			}
			got := back.ToBDDs(m)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("round-trip changed PO %d", i)
				}
			}
			for _, p := range passes {
				p.apply(back)
			}
			got = back.ToBDDs(m)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("cleanup after round-trip changed PO %d", i)
				}
			}
		})
	}
}
