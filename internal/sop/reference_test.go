package sop

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The ref* functions are the minimizer and complement as they were
// before the complement merge dropped its containment scan and Minimize
// moved onto the cover's own support. They are the oracle the kernels
// must match term for term.

func refSingleTermContainment(c *Cover) {
	sort.Slice(c.Terms, func(i, j int) bool {
		return c.Terms[i].Literals() < c.Terms[j].Literals()
	})
	var kept []Term
	for _, t := range c.Terms {
		if t.Contradicts() {
			continue
		}
		contained := false
		for _, k := range kept {
			if k.Contains(t) {
				contained = true
				break
			}
		}
		if !contained {
			kept = append(kept, t)
		}
	}
	c.Terms = kept
}

func refComplementBounded(c *Cover, maxTerms int) (*Cover, bool) {
	for _, t := range c.Terms {
		if t.IsUniversal() {
			return NewCover(c.NumVars), true
		}
	}
	if len(c.Terms) == 0 {
		return Universe(c.NumVars), true
	}
	if len(c.Terms) == 1 {
		out := NewCover(c.NumVars)
		t := c.Terms[0]
		t.Pos.ForEach(func(v int) {
			nt := NewTerm(c.NumVars)
			nt.SetNeg(v)
			out.Terms = append(out.Terms, nt)
		})
		t.Neg.ForEach(func(v int) {
			nt := NewTerm(c.NumVars)
			nt.SetPos(v)
			out.Terms = append(out.Terms, nt)
		})
		return out, true
	}
	v := c.mostBinateVar()
	cpos, ok := refComplementBounded(c.Cofactor(v, true), maxTerms)
	if !ok {
		return nil, false
	}
	cneg, ok := refComplementBounded(c.Cofactor(v, false), maxTerms)
	if !ok {
		return nil, false
	}
	if len(cpos.Terms)+len(cneg.Terms) > maxTerms {
		return nil, false
	}
	out := NewCover(c.NumVars)
	for _, t := range cpos.Terms {
		nt := t.Clone()
		if !nt.Neg.Has(v) {
			nt.SetPos(v)
			out.Terms = append(out.Terms, nt)
		}
	}
	for _, t := range cneg.Terms {
		nt := t.Clone()
		if !nt.Pos.Has(v) {
			nt.SetNeg(v)
			out.Terms = append(out.Terms, nt)
		}
	}
	refSingleTermContainment(out)
	return out, true
}

func refExpandAgainst(c, off *Cover) {
	sort.Slice(c.Terms, func(i, j int) bool {
		return c.Terms[i].Literals() > c.Terms[j].Literals()
	})
	for i := range c.Terms {
		t := &c.Terms[i]
		lits := append(t.Pos.Elements(), t.Neg.Elements()...)
		for _, v := range lits {
			wasPos := t.Pos.Has(v)
			wasNeg := t.Neg.Has(v)
			t.Free(v)
			if TermIntersectsCover(*t, off) {
				if wasPos {
					t.Pos.Set(v)
				}
				if wasNeg {
					t.Neg.Set(v)
				}
			}
		}
	}
	refSingleTermContainment(c)
}

func refIrredundant(c *Cover) {
	sort.Slice(c.Terms, func(i, j int) bool {
		return c.Terms[i].Literals() > c.Terms[j].Literals()
	})
	for i := len(c.Terms) - 1; i >= 0; i-- {
		rest := &Cover{NumVars: c.NumVars}
		rest.Terms = append(rest.Terms, c.Terms[:i]...)
		rest.Terms = append(rest.Terms, c.Terms[i+1:]...)
		if rest.CoversTerm(c.Terms[i]) {
			c.Terms = append(c.Terms[:i], c.Terms[i+1:]...)
		}
	}
}

func refMinimize(c *Cover) {
	refSingleTermContainment(c)
	if len(c.Terms) == 0 {
		return
	}
	off, ok := refComplementBounded(c, 50*(len(c.Terms)+20))
	if !ok {
		refIrredundant(c)
		return
	}
	refExpandAgainst(c, off)
	refIrredundant(c)
	refExpandAgainst(c, off)
	refIrredundant(c)
}

// sameTerms reports the first difference between two term sequences, as
// PLA rows over n variables, or "" when they are equal.
func sameTerms(n int, got, want []Term) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d terms, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Pos.Equal(want[i].Pos) || !got[i].Neg.Equal(want[i].Neg) {
			return fmt.Sprintf("term %d differs:\n  got  %s\n  want %s", i, got[i].PLAString(n), want[i].PLAString(n))
		}
	}
	return ""
}

// kernelLimits are the ComplementBounded limits checkKernels runs: small
// ones that cut the recursion off, and Minimize's own.
func kernelLimits(c *Cover) []int {
	return []int{2, 6, 50 * (len(c.Terms) + 20)}
}

// checkKernels runs Complement, ComplementBounded, SingleTermContainment
// and Minimize on copies of c and fails unless each returns what its
// reference returns: the same ok and the same term sequence. It reports
// how many bounded complements gave up. The unbounded complement is
// checked when the reference finishes it within Minimize's limit; past
// that it can run to many thousands of terms.
func checkKernels(t *testing.T, c *Cover) (cutoffs int) {
	t.Helper()
	n := c.NumVars
	if want, ok := refComplementBounded(c.Clone(), 50*(len(c.Terms)+20)); ok {
		if d := sameTerms(n, c.Clone().Complement().Terms, want.Terms); d != "" {
			t.Fatalf("Complement of %v: %s", c, d)
		}
		got, ok := c.Clone().ComplementBounded(1 << 62)
		if d := sameTerms(n, got.Terms, want.Terms); !ok || d != "" {
			t.Fatalf("ComplementBounded(1<<62) of %v: ok=%v %s", c, ok, d)
		}
	}
	for _, lim := range kernelLimits(c) {
		got, gok := c.Clone().ComplementBounded(lim)
		want, wok := refComplementBounded(c.Clone(), lim)
		if gok != wok {
			t.Fatalf("ComplementBounded(%d) of %v: ok=%v, want %v", lim, c, gok, wok)
		}
		if !gok {
			cutoffs++
			continue
		}
		if d := sameTerms(n, got.Terms, want.Terms); d != "" {
			t.Fatalf("ComplementBounded(%d) of %v: %s", lim, c, d)
		}
	}
	got, ref := c.Clone(), c.Clone()
	got.SingleTermContainment()
	refSingleTermContainment(ref)
	if d := sameTerms(n, got.Terms, ref.Terms); d != "" {
		t.Fatalf("SingleTermContainment of %v: %s", c, d)
	}
	got, ref = c.Clone(), c.Clone()
	got.Minimize()
	refMinimize(ref)
	if d := sameTerms(n, got.Terms, ref.Terms); d != "" {
		t.Fatalf("Minimize of %v: %s", c, d)
	}
	return cutoffs
}

// wideCover draws a cover shaped like a multilevel network's node
// cover: a space of 300 to 1,100 signals, a support of 2 to 16 of them
// anywhere in it, and 1 to 25 terms, some repeated and some
// contradictory.
func wideCover(rng *rand.Rand) *Cover {
	n := 300 + rng.Intn(801)
	sup := rng.Perm(n)[:2+rng.Intn(15)]
	density := 0.15 + 0.6*rng.Float64() // share of the support a term mentions
	c := NewCover(n)
	for i, terms := 0, 1+rng.Intn(25); i < terms; i++ {
		switch {
		case i > 0 && rng.Intn(8) == 0:
			c.Add(c.Terms[rng.Intn(i)].Clone())
			continue
		case rng.Intn(10) == 0:
			t := NewTerm(n)
			v := sup[rng.Intn(len(sup))]
			t.Pos.Set(v)
			t.Neg.Set(v)
			c.Add(t)
			continue
		}
		t := NewTerm(n)
		for _, v := range sup {
			if rng.Float64() < density {
				if rng.Intn(2) == 0 {
					t.SetPos(v)
				} else {
					t.SetNeg(v)
				}
			}
		}
		c.Add(t)
	}
	return c
}

// The complement, containment and minimizer kernels return the
// reference's term sequences on wide, sparse covers.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cutoffs := 0
	for i := 0; i < 600; i++ {
		cutoffs += checkKernels(t, wideCover(rng))
	}
	if cutoffs == 0 {
		t.Fatal("no bounded complement gave up; the ok=false path went untested")
	}
}
