// Package fprm implements Fixed-Polarity Reed-Muller forms: the canonical
// XOR-sum-of-cubes representation (Section 2 of the paper) in which every
// variable appears with one fixed polarity.
//
// A Form couples a polarity vector with a cube list; cube variable v
// denotes the literal x_v when Polarity[v] is true and x̄_v otherwise.
// The synthesis flow derives a form's cubes from a ROBDD through the OFDD
// (ofdd.Manager.FromBDD, then Cubes: the paper's route, any size); the
// truth-table Reed-Muller butterfly (FromTruthTable, small variable
// counts) is the tests' independent reference for that route. Polarity
// search — exhaustive over all 2ⁿ vectors via a Gray-code walk, or greedy
// coordinate descent — minimizes the cube count.
package fprm

import (
	"fmt"
	"math/bits"

	"repro/internal/bdd"
	"repro/internal/budget"
	"repro/internal/cube"
	"repro/internal/obs"
)

// Form is a fixed-polarity Reed-Muller form: XOR of Cubes with literal
// polarities given by Polarity (true = positive).
type Form struct {
	NumVars  int
	Polarity []bool
	Cubes    *cube.List
}

// NewForm returns an empty (constant-0) form with the given polarity.
// A nil polarity means all-positive.
func NewForm(n int, polarity []bool) *Form {
	if polarity == nil {
		polarity = make([]bool, n)
		for i := range polarity {
			polarity[i] = true
		}
	}
	return &Form{NumVars: n, Polarity: append([]bool(nil), polarity...), Cubes: cube.NewList(n)}
}

// Clone returns a deep copy.
func (f *Form) Clone() *Form {
	return &Form{NumVars: f.NumVars, Polarity: append([]bool(nil), f.Polarity...), Cubes: f.Cubes.Clone()}
}

// Eval evaluates the form on an assignment of the underlying variables.
func (f *Form) Eval(assign cube.BitSet) bool {
	// Convert the assignment into literal space: literal of v is true when
	// the assignment agrees with the polarity.
	lits := cube.NewBitSet(f.NumVars)
	for v := 0; v < f.NumVars; v++ {
		if assign.Has(v) == f.Polarity[v] {
			lits.Set(v)
		}
	}
	return f.Cubes.Eval(lits)
}

// ToBDD builds the BDD of the form.
func (f *Form) ToBDD(m *bdd.Manager) bdd.Ref {
	return m.FromESOP(f.Cubes, f.Polarity)
}

// String renders the form with explicit literal polarities.
func (f *Form) String() string {
	if f.Cubes.IsZero() {
		return "0"
	}
	s := ""
	for i, c := range f.Cubes.Cubes {
		if i > 0 {
			s += " ^ "
		}
		if c.IsOne() {
			s += "1"
			continue
		}
		first := true
		c.Vars.ForEach(func(v int) {
			if !first {
				s += "*"
			}
			first = false
			if f.Polarity[v] {
				s += fmt.Sprintf("x%d", v)
			} else {
				s += fmt.Sprintf("~x%d", v)
			}
		})
	}
	return s
}

// FlipPolarity changes the polarity of variable v in place, rewriting the
// cube list through the identity  lit = 1 ⊕ lit'  (old literal in terms of
// the new): every cube containing v is replaced by the pair
// {cube \ v, cube} and duplicates cancel.
func (f *Form) FlipPolarity(v int) {
	extra := make([]cube.Cube, 0)
	for _, c := range f.Cubes.Cubes {
		if c.Has(v) {
			nc := c.Clone()
			nc.Vars.Clear(v)
			extra = append(extra, nc)
		}
	}
	f.Cubes.Cubes = append(f.Cubes.Cubes, extra...)
	f.Cubes.Canonicalize()
	f.Polarity[v] = !f.Polarity[v]
}

// FromTruthTable computes the FPRM form of the function given by tt (bit a
// of word a/64 is the value at minterm a, variable v = bit v of a) under
// the given polarity, via the Reed-Muller butterfly transform. Practical
// for n ≤ 24. A nil polarity means all-positive.
func FromTruthTable(n int, tt []uint64, polarity []bool) *Form {
	size := 1 << uint(n)
	words := (size + 63) / 64
	if len(tt) < words {
		// Programmer invariant: callers size the truth-table slice from the
		// same n they pass here; a short slice is a call-site bug.
		panic("fprm: truth table too short")
	}
	w := append([]uint64(nil), tt[:words]...)
	f := NewForm(n, polarity)
	for v := 0; v < n; v++ {
		butterfly(w, n, v, f.Polarity[v])
	}
	// Collect coefficients: bit S set means cube with variables = bits of S.
	for a := 0; a < size; a++ {
		if w[a/64]&(1<<uint(a%64)) != 0 {
			c := cube.One(n)
			for v := 0; v < n; v++ {
				if a&(1<<v) != 0 {
					c.Vars.Set(v)
				}
			}
			f.Cubes.Add(c)
		}
	}
	f.Cubes.Sort()
	return f
}

// butterfly applies one variable's Davio stage to the coefficient vector.
// Positive polarity: hi ^= lo. Negative polarity: (lo, hi) = (hi, lo⊕hi).
func butterfly(w []uint64, n, v int, positive bool) {
	size := 1 << uint(n)
	if v < 6 {
		shift := uint(1) << uint(v)
		var mask uint64
		// mask selects the "low" positions (bit v clear) of each word.
		switch v {
		case 0:
			mask = 0x5555555555555555
		case 1:
			mask = 0x3333333333333333
		case 2:
			mask = 0x0F0F0F0F0F0F0F0F
		case 3:
			mask = 0x00FF00FF00FF00FF
		case 4:
			mask = 0x0000FFFF0000FFFF
		case 5:
			mask = 0x00000000FFFFFFFF
		}
		for i := range w[:max(1, size/64)] {
			lo := w[i] & mask
			hi := (w[i] >> shift) & mask
			if positive {
				hi ^= lo
			} else {
				lo, hi = hi, lo^hi
			}
			w[i] = lo | hi<<shift
		}
		return
	}
	stride := 1 << uint(v-6) // in words
	for base := 0; base < size/64; base += 2 * stride {
		for i := 0; i < stride; i++ {
			lo := w[base+i]
			hi := w[base+stride+i]
			if positive {
				hi ^= lo
			} else {
				lo, hi = hi, lo^hi
			}
			w[base+i] = lo
			w[base+stride+i] = hi
		}
	}
}

// MaxExhaustiveVars bounds the exhaustive polarity search: the walk
// visits 2ⁿ polarities, so anything past this is infeasible anyway, and
// the guard keeps 1<<n from overflowing int on any platform.
const MaxExhaustiveVars = 30

// SearchExhaustive finds a polarity vector minimizing the cube count
// (ties broken by literal count) by walking all 2ⁿ polarities in
// Gray-code order with incremental flips; cost is O(2ⁿ · m) cube
// operations. The walk polls b every 64 steps and stops early when it is
// exhausted, returning the best form seen so far and whether the walk
// completed. The partial result is always a valid form of the function
// (every step preserves it), so an early stop degrades quality, never
// correctness. For n > MaxExhaustiveVars the walk is refused outright:
// it returns (start, false) instead of overflowing 1<<n.
//
// Progress goes to s: every Gray index evaluated counts a candidate —
// including the start form — and every accepted strict improvement is
// counted. A nil b means unlimited and a nil s disables collection.
func SearchExhaustive(start *Form, b *budget.Budget, s *obs.Search) (best *Form, complete bool) {
	n := start.NumVars
	if n > MaxExhaustiveVars {
		return start.Clone(), false
	}
	cur := start.Clone()
	best = start.Clone()
	s.Candidate()
	total := 1 << uint(n)
	for g := 1; g < total; g++ {
		if g&63 == 0 && b.Exceeded() != nil {
			return best, false
		}
		// Gray code: flip the variable at the lowest set bit of g.
		v := bits.TrailingZeros(uint(g))
		cur.FlipPolarity(v)
		s.Candidate()
		if cur.Cubes.Len() < best.Cubes.Len() ||
			(cur.Cubes.Len() == best.Cubes.Len() && cur.Cubes.Literals() < best.Cubes.Literals()) {
			best = cur.Clone()
			s.Improved()
		}
	}
	return best, true
}

// SearchGreedy improves the polarity by coordinate descent: repeatedly
// flip the single variable whose flip most reduces the cube count (ties
// broken by literal count) until no flip helps. The descent polls b
// before every trial flip and stops early when it is exhausted,
// returning the best form so far and whether the descent ran to a local
// optimum.
//
// A trial prices its flip instead of applying it. Flipping v turns each
// cube c ∋ v into the pair {c, c∖v}, and c∖v cancels exactly when it is
// already in the list. With m cubes and L literals, B the cubes holding v
// and h those of B whose c∖v is present, the flipped form has
// m + |B| − 2|h| cubes and L + Σ_B(|c|−1) − 2·Σ_h(|c|−1) literals. One
// key set per descent round answers the presence queries, and only the
// accepted flip is applied. The formula assumes a canonical start: sorted,
// distinct cubes, as ofdd.Cubes and FromTruthTable emit and FlipPolarity
// keeps.
//
// Progress goes to s: every trial flip counts a candidate, every
// accepted descent step an improvement. A nil b means unlimited and a
// nil s disables collection.
func SearchGreedy(start *Form, b *budget.Budget, s *obs.Search) (best *Form, complete bool) {
	cur := start.Clone()
	var key []byte
	for {
		present := make(map[string]bool, cur.Cubes.Len())
		for _, c := range cur.Cubes.Cubes {
			key = c.Vars.AppendKey(key[:0], -1)
			present[string(key)] = true
		}
		m, l := cur.Cubes.Len(), cur.Cubes.Literals()
		bestV, bestCubes, bestLits := -1, m, l
		for v := 0; v < cur.NumVars; v++ {
			if b.Exceeded() != nil {
				return cur, false
			}
			cubes, lits := m, l
			for _, c := range cur.Cubes.Cubes {
				if !c.Has(v) {
					continue
				}
				rest := c.Size() - 1
				key = c.Vars.AppendKey(key[:0], v)
				if present[string(key)] {
					cubes--
					lits -= rest
				} else {
					cubes++
					lits += rest
				}
			}
			s.Candidate()
			if cubes < bestCubes || (cubes == bestCubes && lits < bestLits) {
				bestV, bestCubes, bestLits = v, cubes, lits
			}
		}
		if bestV < 0 {
			return cur, true
		}
		cur.FlipPolarity(bestV)
		s.Improved()
	}
}

// PrimeCubes returns the indices of the prime cubes of the form: cubes
// whose support is not properly contained in the support of any other cube
// (Csanky et al. [7]; prime cubes occur in all 2ⁿ FPRM forms).
func (f *Form) PrimeCubes() []int {
	var primes []int
	for i, c := range f.Cubes.Cubes {
		prime := true
		for j, d := range f.Cubes.Cubes {
			if i == j {
				continue
			}
			if c.Vars.SubsetOf(d.Vars) && !c.Vars.Equal(d.Vars) {
				prime = false
				break
			}
		}
		if prime {
			primes = append(primes, i)
		}
	}
	return primes
}
