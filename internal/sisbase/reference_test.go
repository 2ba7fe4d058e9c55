package sisbase

import (
	"math/rand"
	"testing"

	"repro/internal/sop"
)

// refBestDivisor is bestDivisor as it was before double-cube divisors
// were tallied on raw words: every non-degenerate term pair builds its
// divisor cover and both term keys. It is the oracle for the tally.
func refBestDivisor(n *Net) *divisorCand {
	pairCount := make(map[[2]litKey]int)
	dcCount := make(map[string]int)
	dcRepr := make(map[string]*sop.Cover)
	dcLits := make(map[string]int)
	for _, id := range n.liveOrder() {
		c := n.Nodes[id].Cover
		for ti, t := range c.Terms {
			lits := termLits(t)
			for i := 0; i < len(lits); i++ {
				for j := i + 1; j < len(lits); j++ {
					pairCount[[2]litKey{lits[i], lits[j]}]++
				}
			}
			for tj := ti + 1; tj < len(c.Terms); tj++ {
				d, ok := refDoubleCubeDivisor(n.sigCap, t, c.Terms[tj])
				if !ok {
					continue
				}
				key := d.Terms[0].Key() + "/" + d.Terms[1].Key()
				if d.Terms[1].Key() < d.Terms[0].Key() {
					key = d.Terms[1].Key() + "/" + d.Terms[0].Key()
				}
				dcCount[key]++
				if _, seen := dcRepr[key]; !seen {
					dcRepr[key] = d
					dcLits[key] = d.Literals()
				}
			}
		}
	}
	var best *divisorCand
	consider := func(c *divisorCand) {
		if best == nil || c.value > best.value || (c.value == best.value && c.key < best.key) {
			best = c
		}
	}
	for k, cnt := range pairCount {
		if value := cnt - 2; cnt >= 2 && value > 0 {
			c := sop.NewCover(n.sigCap)
			t := sop.NewTerm(n.sigCap)
			setLit(&t, k[0])
			setLit(&t, k[1])
			c.Add(t)
			consider(&divisorCand{cover: c, value: value, key: t.Key()})
		}
	}
	for key, cnt := range dcCount {
		if value := (cnt-1)*dcLits[key] - cnt; cnt >= 2 && value > 0 {
			consider(&divisorCand{cover: dcRepr[key], value: value, key: key})
		}
	}
	return best
}

func refDoubleCubeDivisor(capSig int, a, b sop.Term) (*sop.Cover, bool) {
	basePos := a.Pos.Clone()
	basePos.IntersectWith(b.Pos)
	baseNeg := a.Neg.Clone()
	baseNeg.IntersectWith(b.Neg)
	ra := a.Clone()
	ra.Pos.DifferenceWith(basePos)
	ra.Neg.DifferenceWith(baseNeg)
	rb := b.Clone()
	rb.Pos.DifferenceWith(basePos)
	rb.Neg.DifferenceWith(baseNeg)
	if ra.Literals() == 0 || rb.Literals() == 0 {
		return nil, false
	}
	raSup := ra.Pos.Clone()
	raSup.UnionWith(ra.Neg)
	rbSup := rb.Pos.Clone()
	rbSup.UnionWith(rb.Neg)
	if raSup.Intersects(rbSup) {
		return nil, false
	}
	c := sop.NewCover(capSig)
	c.Add(ra)
	c.Add(rb)
	return c, true
}

// plantedNet returns a network of node covers over a wide signal space
// that share planted two-term divisors, so that double-cube candidates
// occur in several nodes, plus random terms.
func plantedNet(rng *rand.Rand) *Net {
	nPI := 6 + rng.Intn(6)
	n := &Net{Name: "planted", sigCap: 300 + rng.Intn(800)}
	for i := 0; i < nPI; i++ {
		n.Nodes = append(n.Nodes, &Node{ID: i, IsPI: true})
		n.PIs = append(n.PIs, i)
	}
	cubeOf := func(vars int) sop.Term {
		t := sop.NewTerm(n.sigCap)
		for j := 0; j < vars; j++ {
			if v := rng.Intn(nPI); rng.Intn(2) == 0 {
				t.SetPos(v)
			} else {
				t.SetNeg(v)
			}
		}
		return t
	}
	divisors := make([][2]sop.Term, 1+rng.Intn(3))
	for i := range divisors {
		divisors[i] = [2]sop.Term{cubeOf(1 + rng.Intn(2)), cubeOf(1 + rng.Intn(2))}
	}
	for k := 0; k < 3+rng.Intn(5); k++ {
		c := sop.NewCover(n.sigCap)
		for j := 0; j < 1+rng.Intn(3); j++ {
			d, q := divisors[rng.Intn(len(divisors))], cubeOf(rng.Intn(3))
			for _, dt := range d {
				t := q.Clone()
				t.Pos.UnionWith(dt.Pos)
				t.Neg.UnionWith(dt.Neg)
				if !t.Contradicts() {
					c.Add(t)
				}
			}
		}
		for j := 0; j < rng.Intn(3); j++ {
			c.Add(cubeOf(1 + rng.Intn(3)))
		}
		id := len(n.Nodes)
		n.Nodes = append(n.Nodes, &Node{ID: id, Cover: c})
		n.POs = append(n.POs, PO{Node: id})
	}
	return n
}

// bestDivisor picks the reference's divisor, with the same value, key
// and term sequence, at every stage of the script.
func TestBestDivisorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	doubleCubes, checks := 0, 0
	check := func(n *Net) {
		t.Helper()
		got, want := n.bestDivisor(), refBestDivisor(n)
		if (got == nil) != (want == nil) {
			t.Fatalf("divisor %v, want %v", got, want)
		}
		if got == nil {
			return
		}
		if got.value != want.value || got.key != want.key || got.cover.String() != want.cover.String() {
			t.Fatalf("divisor %d %q %v, want %d %q %v", got.value, got.key, got.cover, want.value, want.key, want.cover)
		}
		if got.dc != nil {
			doubleCubes++
		}
		checks++
	}
	for i := 0; i < 300; i++ {
		n := plantedNet(rng)
		for it := 0; it < 3; it++ {
			check(n)
			n.FastExtract()
			check(n)
			n.Resub()
			n.Eliminate(eliminateValue)
			n.Simplify()
			n.Sweep()
		}
	}
	if doubleCubes == 0 {
		t.Fatal("no double-cube divisor won; the tally went untested")
	}
	t.Logf("%d divisors compared, %d of them double-cube", checks, doubleCubes)
}
