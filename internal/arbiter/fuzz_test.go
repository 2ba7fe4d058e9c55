package arbiter

import (
	"bytes"
	"testing"

	"repro/internal/bdd"
	"repro/internal/network"
	"repro/internal/sop"
)

// Seed specs for the predictor fuzzer (also committed under
// testdata/fuzz/FuzzPredict): the two pure shapes the thresholds are
// anchored on plus a mixed multi-output cone set.
var fuzzSeeds = []string{
	// Pure parity of four inputs: the canonical GF(2) cone.
	".i 4\n.o 1\n1000 1\n0100 1\n0010 1\n0001 1\n1110 1\n1101 1\n1011 1\n0111 1\n.e\n",
	// Pure majority-of-five: unate control logic, the canonical SOP cone.
	".i 5\n.o 1\n111-- 1\n11-1- 1\n11--1 1\n1-11- 1\n1-1-1 1\n1--11 1\n-111- 1\n-11-1 1\n-1-11 1\n--111 1\n.e\n",
	// Mixed cone set: one parity output, one AND/OR control output.
	".i 4\n.o 2\n1000 10\n0100 10\n0010 10\n0001 10\n1110 10\n1101 10\n1011 10\n0111 10\n11-- 01\n--11 01\n.e\n",
}

// FuzzPredict feeds arbitrary PLA specs through the predictor, checking
// it never panics, never mutates the shared BDD manager, always returns
// a verdict from the closed set, and is exactly repeatable (the property
// the -j determinism of the predict phase rests on).
func FuzzPredict(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := sop.ParsePLA(bytes.NewReader(data))
		if err != nil || p.Inputs > 14 || p.Outputs > 8 {
			return
		}
		terms := 0
		for _, c := range p.Covers {
			terms += len(c.Terms)
		}
		if terms > 256 {
			return
		}
		spec := network.FromPLA(p)
		m := bdd.New(spec.NumPIs())
		outs := spec.ToBDDs(m)
		for oi, out := range outs {
			before := m.Size()
			p1 := Predict(m, out)
			p2 := Predict(m, out)
			if p1 != p2 {
				t.Fatalf("output %d: predictions differ: %+v vs %+v", oi, p1, p2)
			}
			if m.Size() != before {
				t.Fatalf("output %d: Predict grew the shared manager %d -> %d", oi, before, m.Size())
			}
			switch p1.Decision {
			case Xor, Sop, Hedge:
			default:
				t.Fatalf("output %d: verdict %v outside the closed set", oi, p1.Decision)
			}
			if p1.Why == "" {
				t.Fatalf("output %d: empty reason", oi)
			}
		}
	})
}
