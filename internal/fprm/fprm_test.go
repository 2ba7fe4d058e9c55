package fprm

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bdd"
	"repro/internal/budget"
	"repro/internal/cube"
	"repro/internal/obs"
	"repro/internal/ofdd"
)

func assignOf(n, a int) cube.BitSet {
	s := cube.NewBitSet(n)
	for v := 0; v < n; v++ {
		if a&(1<<v) != 0 {
			s.Set(v)
		}
	}
	return s
}

func randomTT(rng *rand.Rand, n int) []uint64 {
	words := (1<<uint(n) + 63) / 64
	tt := make([]uint64, words)
	for i := range tt {
		tt[i] = rng.Uint64()
	}
	if n < 6 {
		tt[0] &= 1<<uint(1<<uint(n)) - 1
	}
	return tt
}

func ttBit(tt []uint64, a int) bool { return tt[a/64]&(1<<uint(a%64)) != 0 }

// Property: the butterfly transform produces a form that evaluates
// identically to the source truth table, for random polarities.
func TestQuickTransformCorrect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7) // 1..7 vars crosses the word boundary at 6
		tt := randomTT(rng, n)
		pol := make([]bool, n)
		for i := range pol {
			pol[i] = rng.Intn(2) == 1
		}
		form := FromTruthTable(n, tt, pol)
		for a := 0; a < 1<<uint(n); a++ {
			if form.Eval(assignOf(n, a)) != ttBit(tt, a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: truth-table route and BDD/OFDD route produce the same cubes.
func TestQuickTransformMatchesBDDRoute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		tt := randomTT(rng, n)
		pol := make([]bool, n)
		for i := range pol {
			pol[i] = rng.Intn(2) == 1
		}
		m := bdd.New(n)
		var g bdd.Ref = bdd.Zero
		for a := 0; a < 1<<uint(n); a++ {
			if ttBit(tt, a) {
				p := bdd.One
				for v := 0; v < n; v++ {
					if a&(1<<v) != 0 {
						p = m.And(p, m.Var(v))
					} else {
						p = m.And(p, m.Not(m.Var(v)))
					}
				}
				g = m.Or(g, p)
			}
		}
		f1 := FromTruthTable(n, tt, pol)
		om := ofdd.New(n, pol)
		cubes, err := om.Cubes(om.FromBDD(m, g), 0)
		return err == nil && f1.Cubes.Equal(cubes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: FlipPolarity preserves the function.
func TestQuickFlipPolarityPreserves(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		tt := randomTT(rng, n)
		form := FromTruthTable(n, tt, nil)
		v := rng.Intn(n)
		form.FlipPolarity(v)
		for a := 0; a < 1<<uint(n); a++ {
			if form.Eval(assignOf(n, a)) != ttBit(tt, a) {
				return false
			}
		}
		// Flipping back restores the canonical cube set.
		form.FlipPolarity(v)
		orig := FromTruthTable(n, tt, nil)
		return form.Cubes.Equal(orig.Cubes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestParityPPRM(t *testing.T) {
	// Parity of n variables: PPRM is x0 ⊕ x1 ⊕ ... ⊕ x_{n-1}.
	n := 8
	tt := make([]uint64, (1<<uint(n))/64)
	for a := 0; a < 1<<uint(n); a++ {
		cnt := 0
		for v := 0; v < n; v++ {
			if a&(1<<v) != 0 {
				cnt++
			}
		}
		if cnt%2 == 1 {
			tt[a/64] |= 1 << uint(a%64)
		}
	}
	form := FromTruthTable(n, tt, nil)
	if form.Cubes.Len() != n {
		t.Fatalf("parity PPRM has %d cubes, want %d", form.Cubes.Len(), n)
	}
	for _, c := range form.Cubes.Cubes {
		if c.Size() != 1 {
			t.Errorf("parity cube %s not a single literal", c)
		}
	}
	// All polarities of parity have n cubes; exhaustive search must not
	// do worse.
	best, _ := SearchGreedy(form, nil, nil)
	if best.Cubes.Len() != n {
		t.Errorf("greedy search changed parity cube count to %d", best.Cubes.Len())
	}
}

func TestSearchExhaustiveFindsMinimum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3) // 2..4 vars
		tt := randomTT(rng, n)
		start := FromTruthTable(n, tt, nil)
		best, _ := SearchExhaustive(start, nil, nil)
		// Verify optimality by brute force over all polarity vectors.
		for p := 0; p < 1<<uint(n); p++ {
			pol := make([]bool, n)
			for v := 0; v < n; v++ {
				pol[v] = p&(1<<v) != 0
			}
			form := FromTruthTable(n, tt, pol)
			if form.Cubes.Len() < best.Cubes.Len() {
				return false
			}
		}
		// And the returned form still computes the function.
		for a := 0; a < 1<<uint(n); a++ {
			if best.Eval(assignOf(n, a)) != ttBit(tt, a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSearchGreedyNeverWorse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		tt := randomTT(rng, n)
		start := FromTruthTable(n, tt, nil)
		best, _ := SearchGreedy(start, nil, nil)
		if best.Cubes.Len() > start.Cubes.Len() {
			return false
		}
		for a := 0; a < 1<<uint(n); a++ {
			if best.Eval(assignOf(n, a)) != ttBit(tt, a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// t481TT builds the truth table of t481 from the paper's final equation:
// t481 = (v̄0v1 ⊕ v2v̄3)(v̄4v5 ⊕ (v̄6+v7)) ⊕ ((v8+v̄9) ⊕ v10v̄11)(v̄12v13 ⊕ v14v̄15)
func t481TT() []uint64 {
	tt := make([]uint64, (1<<16)/64)
	for a := 0; a < 1<<16; a++ {
		v := func(i int) bool { return a&(1<<i) != 0 }
		x := func(b bool) int {
			if b {
				return 1
			}
			return 0
		}
		left := (x(!v(0) && v(1)) ^ x(v(2) && !v(3))) & (x(!v(4) && v(5)) ^ x(!v(6) || v(7)))
		right := (x(v(8) || !v(9)) ^ x(v(10) && !v(11))) & (x(!v(12) && v(13)) ^ x(v(14) && !v(15)))
		if left^right == 1 {
			tt[a/64] |= 1 << uint(a%64)
		}
	}
	return tt
}

// TestT481FPRMCubeCount verifies the paper's Example 1 claim: t481 has
// only 16 cubes in the FPRM form (at the natural polarity of its
// equation), and 10 of those cubes are prime.
func TestT481FPRMCubeCount(t *testing.T) {
	// Polarity read off the equation's literals.
	pol := []bool{
		false, true, true, false, // v̄0 v1 v2 v̄3
		false, true, false, true, // v̄4 v5 v̄6 v7
		true, false, true, false, // v8 v̄9 v10 v̄11
		false, true, true, false, // v̄12 v13 v14 v̄15
	}
	form := FromTruthTable(16, t481TT(), pol)
	if form.Cubes.Len() != 16 {
		t.Errorf("t481 FPRM cube count = %d, want 16 (paper, Example 1)", form.Cubes.Len())
	}
	// The paper reports "10 of the 16 cubes are primes". Expanding the
	// paper's own final equation (the only available ground truth for
	// t481's function) gives 8 cubes whose support is not properly
	// contained in another's: the 8 maximal supports
	// {0,1,4,5} {2,3,4,5} {0,1,6,7} {2,3,6,7} {8,9,12,13} {8,9,14,15}
	// {10,11,12,13} {10,11,14,15}. The paper presumably counted on the
	// benchmark's own FPRM polarity, which we cannot recover exactly.
	// Recorded in EXPERIMENTS.md.
	primes := form.PrimeCubes()
	if len(primes) != 8 {
		t.Errorf("t481 prime cube count = %d, want 8 (paper reports 10; see comment)", len(primes))
	}
}

func TestPrimeCubesAllPrimesForAdderOutput(t *testing.T) {
	// z4ml output x26 = x3 ⊕ x6 ⊕ x1x4 ⊕ x1x7 ⊕ x4x7: all cubes prime
	// (paper, Section 2). Variables renamed to 0-based indices.
	form := NewForm(7, nil)
	form.Cubes.Add(cube.New(7, 2))
	form.Cubes.Add(cube.New(7, 5))
	form.Cubes.Add(cube.New(7, 0, 3))
	form.Cubes.Add(cube.New(7, 0, 6))
	form.Cubes.Add(cube.New(7, 3, 6))
	if got := len(form.PrimeCubes()); got != 5 {
		t.Errorf("prime cubes = %d, want all 5", got)
	}
}

func TestPrimeCubesNonPrime(t *testing.T) {
	form := NewForm(3, nil)
	form.Cubes.Add(cube.New(3, 0))       // support {0} ⊂ {0,1}: not prime
	form.Cubes.Add(cube.New(3, 0, 1))    // {0,1} ⊂ {0,1,2}: not prime
	form.Cubes.Add(cube.New(3, 0, 1, 2)) // prime
	primes := form.PrimeCubes()
	if len(primes) != 1 || primes[0] != 2 {
		t.Errorf("primes = %v, want [2]", primes)
	}
}

func TestFormToBDD(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 5
	tt := randomTT(rng, n)
	pol := []bool{true, false, true, false, true}
	form := FromTruthTable(n, tt, pol)
	m := bdd.New(n)
	f := form.ToBDD(m)
	for a := 0; a < 1<<uint(n); a++ {
		if m.Eval(f, assignOf(n, a)) != ttBit(tt, a) {
			t.Fatalf("ToBDD wrong at minterm %d", a)
		}
	}
}

func TestConstantFunctions(t *testing.T) {
	// Constant 0: empty form.
	zero := FromTruthTable(3, []uint64{0}, nil)
	if !zero.Cubes.IsZero() {
		t.Error("constant 0 should have no cubes")
	}
	// Constant 1: just the 1-cube.
	one := FromTruthTable(3, []uint64{0xFF}, nil)
	if one.Cubes.Len() != 1 || !one.Cubes.Cubes[0].IsOne() {
		t.Errorf("constant 1 form = %s", one)
	}
}

// greedyReference is the pre-optimization clone-per-trial implementation
// of SearchGreedy, kept as the behavioral oracle for the in-place
// flip/flip-back version.
func greedyReference(start *Form) *Form {
	cur := start.Clone()
	for {
		bestV := -1
		bestCubes := cur.Cubes.Len()
		bestLits := cur.Cubes.Literals()
		for v := 0; v < cur.NumVars; v++ {
			trial := cur.Clone()
			trial.FlipPolarity(v)
			if trial.Cubes.Len() < bestCubes ||
				(trial.Cubes.Len() == bestCubes && trial.Cubes.Literals() < bestLits) {
				bestV = v
				bestCubes = trial.Cubes.Len()
				bestLits = trial.Cubes.Literals()
			}
		}
		if bestV < 0 {
			return cur
		}
		cur.FlipPolarity(bestV)
	}
}

// Property: the in-place greedy descent lands on exactly the polarity
// vector and canonical cube set the clone-per-trial reference does.
func TestGreedyInPlaceMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		tt := randomTT(rng, n)
		start := FromTruthTable(n, tt, nil)
		want := greedyReference(start)
		got, _ := SearchGreedy(start, nil, nil)
		if !got.Cubes.Equal(want.Cubes) {
			return false
		}
		for v := 0; v < n; v++ {
			if got.Polarity[v] != want.Polarity[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Regression: n above MaxExhaustiveVars must refuse the walk (the old
// code computed 1<<n unguarded, overflowing for large n) and report the
// search incomplete with the start form untouched.
func TestExhaustiveOverflowGuard(t *testing.T) {
	for _, n := range []int{MaxExhaustiveVars + 1, 63, 64, 200} {
		start := NewForm(n, nil)
		start.Cubes.Add(cube.New(n, 0, n-1))
		start.Cubes.Add(cube.One(n))
		best, complete := SearchExhaustive(start, nil, nil)
		if complete {
			t.Fatalf("n=%d: walk reported complete", n)
		}
		if !best.Cubes.Equal(start.Cubes) || best.Cubes.Len() != 2 {
			t.Fatalf("n=%d: start form not returned unchanged", n)
		}
	}
}

// greedyFlipRestore is SearchGreedy as it was before trials were priced:
// every trial applies its flip and flips back. It is the oracle for the
// priced descent, budget polls and search counters included.
func greedyFlipRestore(start *Form, b *budget.Budget, s *obs.Search) (*Form, bool) {
	cur := start.Clone()
	for {
		bestV := -1
		bestCubes := cur.Cubes.Len()
		bestLits := cur.Cubes.Literals()
		for v := 0; v < cur.NumVars; v++ {
			if b.Exceeded() != nil {
				return cur, false
			}
			cur.FlipPolarity(v)
			s.Candidate()
			if cur.Cubes.Len() < bestCubes ||
				(cur.Cubes.Len() == bestCubes && cur.Cubes.Literals() < bestLits) {
				bestV = v
				bestCubes = cur.Cubes.Len()
				bestLits = cur.Cubes.Literals()
			}
			cur.FlipPolarity(v)
		}
		if bestV < 0 {
			return cur, true
		}
		cur.FlipPolarity(bestV)
		s.Improved()
	}
}

// sameForm reports whether two forms have the same polarity and the
// same cube sequence, order included.
func sameForm(a, b *Form) bool {
	if a.Cubes.Len() != b.Cubes.Len() || len(a.Polarity) != len(b.Polarity) {
		return false
	}
	for v := range a.Polarity {
		if a.Polarity[v] != b.Polarity[v] {
			return false
		}
	}
	for i, c := range a.Cubes.Cubes {
		if !c.Equal(b.Cubes.Cubes[i]) {
			return false
		}
	}
	return true
}

// The priced descent returns what the flip-and-restore descent returns:
// polarity, cube sequence, completeness and search counters, also when a
// budget poll trips it part-way (after k polls, for several k).
func TestGreedyMatchesFlipRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	changed := 0
	for i := 0; i < 60; i++ {
		n := 2 + rng.Intn(9)
		var pol []bool
		if rng.Intn(2) == 0 {
			pol = make([]bool, n)
			for v := range pol {
				pol[v] = rng.Intn(2) == 0
			}
		}
		start := FromTruthTable(n, randomTT(rng, n), pol)
		for _, k := range []int64{-1, 0, int64(n), int64(n + 1 + rng.Intn(3*n))} {
			var budgets [2]*budget.Budget
			if k >= 0 {
				for j := range budgets {
					budgets[j] = budget.New(context.Background(), budget.Limits{})
					budgets[j].SetPollHook(func(poll int64) *budget.Err {
						if poll > k {
							return &budget.Err{Phase: "poll", Limit: "canceled"}
						}
						return nil
					})
				}
			}
			var got, want obs.Search
			g, gc := SearchGreedy(start, budgets[0], &got)
			w, wc := greedyFlipRestore(start, budgets[1], &want)
			if !sameForm(g, w) || gc != wc || got.Snapshot() != want.Snapshot() {
				t.Fatalf("n=%d k=%d: got %s (complete %v, %+v), want %s (complete %v, %+v)",
					n, k, g, gc, got.Snapshot(), w, wc, want.Snapshot())
			}
			if budgets[0].Polls() != budgets[1].Polls() {
				t.Fatalf("n=%d k=%d: %d polls, want %d", n, k, budgets[0].Polls(), budgets[1].Polls())
			}
			if k < 0 && !sameForm(g, start) {
				changed++
			}
		}
	}
	if changed == 0 {
		t.Fatal("the search never moved a form; the comparison is vacuous")
	}
}
