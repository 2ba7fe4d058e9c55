package sop

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cube"
)

// evalAll returns the truth table of a cover as a bitmask over minterms.
func evalAll(c *Cover) uint64 {
	if c.NumVars > 6 {
		panic("evalAll limited to 6 vars")
	}
	var tt uint64
	for m := 0; m < 1<<c.NumVars; m++ {
		assign := cube.NewBitSet(c.NumVars)
		for v := 0; v < c.NumVars; v++ {
			if m&(1<<v) != 0 {
				assign.Set(v)
			}
		}
		if c.Eval(assign) {
			tt |= 1 << uint(m)
		}
	}
	return tt
}

func randomCover(rng *rand.Rand, n, terms int) *Cover {
	c := NewCover(n)
	for i := 0; i < terms; i++ {
		t := NewTerm(n)
		for v := 0; v < n; v++ {
			switch rng.Intn(3) {
			case 0:
				t.SetPos(v)
			case 1:
				t.SetNeg(v)
			}
		}
		c.Add(t)
	}
	return c
}

func TestTermBasics(t *testing.T) {
	tm := NewTerm(4)
	tm.SetPos(0)
	tm.SetNeg(2)
	if tm.Literals() != 2 {
		t.Errorf("Literals = %d, want 2", tm.Literals())
	}
	if tm.PLAString(4) != "1-0-" {
		t.Errorf("PLAString = %q, want 1-0-", tm.PLAString(4))
	}
	if tm.IsUniversal() || tm.Contradicts() {
		t.Error("term misclassified")
	}
	tm.SetNeg(0)
	if tm.Pos.Has(0) {
		t.Error("SetNeg did not clear positive literal")
	}
}

func TestTermIntersect(t *testing.T) {
	a := NewTerm(3)
	a.SetPos(0)
	b := NewTerm(3)
	b.SetNeg(0)
	if a.IntersectsTerm(b) {
		t.Error("x0 and ~x0 should not intersect")
	}
	c := NewTerm(3)
	c.SetPos(1)
	p, ok := a.Intersect(c)
	if !ok || !p.Pos.Has(0) || !p.Pos.Has(1) {
		t.Error("intersection of compatible terms wrong")
	}
}

func TestTautologyBasics(t *testing.T) {
	// x0 + ~x0 is a tautology.
	c := NewCover(2)
	t1 := NewTerm(2)
	t1.SetPos(0)
	t2 := NewTerm(2)
	t2.SetNeg(0)
	c.Add(t1)
	c.Add(t2)
	if !c.IsTautology() {
		t.Error("x0 + ~x0 not recognized as tautology")
	}
	// x0 + x1 is not.
	d := NewCover(2)
	u1 := NewTerm(2)
	u1.SetPos(0)
	u2 := NewTerm(2)
	u2.SetPos(1)
	d.Add(u1)
	d.Add(u2)
	if d.IsTautology() {
		t.Error("x0 + x1 wrongly a tautology")
	}
	if NewCover(2).IsTautology() {
		t.Error("empty cover wrongly a tautology")
	}
	if !Universe(2).IsTautology() {
		t.Error("universe not a tautology")
	}
}

func TestComplementSingleTerm(t *testing.T) {
	c := NewCover(3)
	tm := NewTerm(3)
	tm.SetPos(0)
	tm.SetNeg(1)
	c.Add(tm)
	comp := c.Complement()
	if evalAll(c)^evalAll(comp) != (1<<8)-1 {
		t.Errorf("complement wrong: f=%08b ~f=%08b", evalAll(c), evalAll(comp))
	}
}

func TestComplementQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		c := randomCover(rng, n, 1+rng.Intn(6))
		comp := c.Complement()
		mask := uint64(1)<<(1<<n) - 1
		return evalAll(c)^evalAll(comp) == mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMinimizePreservesFunction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		c := randomCover(rng, n, 2+rng.Intn(8))
		before := evalAll(c)
		litsBefore := c.Literals()
		c.Minimize()
		after := evalAll(c)
		return before == after && c.Literals() <= litsBefore
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMinimizeShrinksRedundantCover(t *testing.T) {
	// x0x1 + x0~x1 should minimize to x0.
	c := NewCover(2)
	t1 := NewTerm(2)
	t1.SetPos(0)
	t1.SetPos(1)
	t2 := NewTerm(2)
	t2.SetPos(0)
	t2.SetNeg(1)
	c.Add(t1)
	c.Add(t2)
	c.Minimize()
	if len(c.Terms) != 1 || c.Terms[0].Literals() != 1 || !c.Terms[0].Pos.Has(0) {
		t.Errorf("minimize(x0x1+x0~x1) = %s, want x0", c)
	}
}

func TestIrredundant(t *testing.T) {
	// x0 + x1 + x0x1: the last term is redundant.
	c := NewCover(2)
	t1 := NewTerm(2)
	t1.SetPos(0)
	t2 := NewTerm(2)
	t2.SetPos(1)
	t3 := NewTerm(2)
	t3.SetPos(0)
	t3.SetPos(1)
	c.Add(t1)
	c.Add(t2)
	c.Add(t3)
	c.Irredundant()
	if len(c.Terms) != 2 {
		t.Errorf("irredundant left %d terms, want 2", len(c.Terms))
	}
}

func TestCoversTerm(t *testing.T) {
	// Cover x0 + x1 covers term x0x1 but not term ~x0.
	c := NewCover(2)
	t1 := NewTerm(2)
	t1.SetPos(0)
	t2 := NewTerm(2)
	t2.SetPos(1)
	c.Add(t1)
	c.Add(t2)
	both := NewTerm(2)
	both.SetPos(0)
	both.SetPos(1)
	if !c.CoversTerm(both) {
		t.Error("x0+x1 should cover x0x1")
	}
	neg := NewTerm(2)
	neg.SetNeg(0)
	if c.CoversTerm(neg) {
		t.Error("x0+x1 should not cover ~x0")
	}
}

func TestFromMinterms(t *testing.T) {
	// Majority of 3 variables: minterms 3,5,6,7.
	c := FromMinterms(3, []int{3, 5, 6, 7})
	want := uint64(0)
	for _, m := range []int{3, 5, 6, 7} {
		want |= 1 << uint(m)
	}
	if evalAll(c) != want {
		t.Errorf("FromMinterms truth table = %08b, want %08b", evalAll(c), want)
	}
	// Espresso should find the 3-cube prime cover (6 literals).
	if len(c.Terms) != 3 || c.Literals() != 6 {
		t.Errorf("majority cover: %d terms / %d literals, want 3/6 (%s)", len(c.Terms), c.Literals(), c)
	}
}

func TestFromFuncParity(t *testing.T) {
	c, err := FromFunc(4, func(m int) bool {
		cnt := 0
		for v := 0; v < 4; v++ {
			if m&(1<<v) != 0 {
				cnt++
			}
		}
		return cnt%2 == 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromFunc(25, func(int) bool { return false }); err == nil {
		t.Error("FromFunc must refuse 25 variables")
	}
	// Parity needs all 8 minterms; check the function at least.
	for m := 0; m < 16; m++ {
		assign := cube.NewBitSet(4)
		cnt := 0
		for v := 0; v < 4; v++ {
			if m&(1<<v) != 0 {
				assign.Set(v)
				cnt++
			}
		}
		if c.Eval(assign) != (cnt%2 == 1) {
			t.Fatalf("parity cover wrong at minterm %d", m)
		}
	}
	if len(c.Terms) != 8 {
		t.Errorf("4-var parity cover has %d terms, want 8 (all primes are minterms)", len(c.Terms))
	}
}

func TestEqual(t *testing.T) {
	a := FromMinterms(3, []int{1, 3, 5, 7}) // = x0
	b := NewCover(3)
	tm := NewTerm(3)
	tm.SetPos(0)
	b.Add(tm)
	if !a.Equal(b) {
		t.Error("equivalent covers compare unequal")
	}
	c := NewCover(3)
	tm2 := NewTerm(3)
	tm2.SetPos(1)
	c.Add(tm2)
	if a.Equal(c) {
		t.Error("different covers compare equal")
	}
}

func TestCofactor(t *testing.T) {
	// f = x0x1 + ~x0x2; f|x0=1 = x1, f|x0=0 = x2.
	c := NewCover(3)
	t1 := NewTerm(3)
	t1.SetPos(0)
	t1.SetPos(1)
	t2 := NewTerm(3)
	t2.SetNeg(0)
	t2.SetPos(2)
	c.Add(t1)
	c.Add(t2)
	p := c.Cofactor(0, true)
	if len(p.Terms) != 1 || !p.Terms[0].Pos.Has(1) || p.Terms[0].Pos.Has(0) {
		t.Errorf("cofactor x0=1 wrong: %s", p)
	}
	n := c.Cofactor(0, false)
	if len(n.Terms) != 1 || !n.Terms[0].Pos.Has(2) {
		t.Errorf("cofactor x0=0 wrong: %s", n)
	}
}

// mostBinateVarRef is the counting loop mostBinateVar replaced: two
// NumVars-long count slices and a scan of every variable.
func mostBinateVarRef(c *Cover) int {
	pos := make([]int, c.NumVars)
	neg := make([]int, c.NumVars)
	for _, t := range c.Terms {
		t.Pos.ForEach(func(v int) { pos[v]++ })
		t.Neg.ForEach(func(v int) { neg[v]++ })
	}
	best, bestScore := -1, -1
	for v := 0; v < c.NumVars; v++ {
		tot := pos[v] + neg[v]
		if tot == 0 {
			continue
		}
		score := tot
		if pos[v] > 0 && neg[v] > 0 {
			score += 1 << 20
		}
		if score > bestScore {
			best, bestScore = v, score
		}
	}
	return best
}

// sparseCover draws a cover over n variables whose terms have a few
// literals each, drawn from a small pool so that counts tie often.
func sparseCover(rng *rand.Rand, n int) *Cover {
	pool := make([]int, 1+rng.Intn(8))
	for i := range pool {
		pool[i] = rng.Intn(n)
	}
	c := NewCover(n)
	for i := rng.Intn(12); i > 0; i-- {
		t := NewTerm(n)
		for j := rng.Intn(5); j > 0; j-- {
			if v := pool[rng.Intn(len(pool))]; rng.Intn(2) == 0 {
				t.SetPos(v)
			} else {
				t.SetNeg(v)
			}
		}
		c.Add(t)
	}
	return c
}

func TestMostBinateVarMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		c := sparseCover(rng, 1+rng.Intn(300))
		if i%4 == 0 {
			c = randomCover(rng, 1+rng.Intn(70), rng.Intn(10))
		}
		if got, want := c.mostBinateVar(), mostBinateVarRef(c); got != want {
			t.Fatalf("cover %d over %d vars: mostBinateVar = %d, reference %d\n%s", i, c.NumVars, got, want, c)
		}
	}
}

// mostBinateVar sits inside the tautology and complement recursions over
// the wide signal spaces of sisbase covers; it must not allocate.
func TestMostBinateVarAllocs(t *testing.T) {
	n := 2*500 + 256
	c := NewCover(n)
	for _, v := range []int{3, 70, 700, n - 1} {
		t := NewTerm(n)
		t.SetPos(v)
		t.SetNeg(v/2 + 1)
		c.Add(t)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.mostBinateVar() }); allocs != 0 {
		t.Errorf("mostBinateVar allocates %.0f times per call, want 0", allocs)
	}
}
