// Package sop implements two-level Sum-of-Products covers with both literal
// polarities, the unate recursive paradigm (tautology, complement), an
// espresso-style minimizer (expand / irredundant), and PLA text I/O.
//
// It is the substrate the SIS-like baseline flow (package sisbase) operates
// on, and the input representation for benchmark functions specified in
// two-level form.
package sop

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/cube"
)

// Term is one product term of a cover. A variable may appear positive,
// negative, or not at all (don't-care in that position).
type Term struct {
	Pos cube.BitSet // variables appearing as positive literals
	Neg cube.BitSet // variables appearing as negative literals
}

// NewTerm returns the universal term (no literals) over n variables.
// Both bitsets share one allocation.
func NewTerm(n int) Term {
	w := len(cube.NewBitSet(n))
	words := make(cube.BitSet, 2*w)
	return Term{Pos: words[:w:w], Neg: words[w:]}
}

// Clone returns an independent copy of t, in one allocation.
func (t Term) Clone() Term {
	p := len(t.Pos)
	words := make(cube.BitSet, p+len(t.Neg))
	copy(words, t.Pos)
	copy(words[p:], t.Neg)
	return Term{Pos: words[:p:p], Neg: words[p:]}
}

// SetPos adds the positive literal of v (clearing any negative literal).
func (t Term) SetPos(v int) { t.Pos.Set(v); t.Neg.Clear(v) }

// SetNeg adds the negative literal of v (clearing any positive literal).
func (t Term) SetNeg(v int) { t.Neg.Set(v); t.Pos.Clear(v) }

// Free removes both literals of v from the term.
func (t Term) Free(v int) { t.Pos.Clear(v); t.Neg.Clear(v) }

// Literals returns the number of literals in the term.
func (t Term) Literals() int { return t.Pos.Count() + t.Neg.Count() }

// IsUniversal reports whether the term has no literals (constant 1).
func (t Term) IsUniversal() bool { return t.Pos.IsEmpty() && t.Neg.IsEmpty() }

// Contradicts reports whether the term contains both polarities of some
// variable and is therefore the constant-0 product.
func (t Term) Contradicts() bool { return t.Pos.Intersects(t.Neg) }

// Contains reports whether t covers u (every minterm of u is a minterm of
// t); as literal sets, t's literals are a subset of u's.
func (t Term) Contains(u Term) bool {
	return t.Pos.SubsetOf(u.Pos) && t.Neg.SubsetOf(u.Neg)
}

// IntersectsTerm reports whether t and u share at least one minterm, i.e.
// no variable appears with opposite polarities in the two terms.
func (t Term) IntersectsTerm(u Term) bool {
	return !t.Pos.Intersects(u.Neg) && !t.Neg.Intersects(u.Pos)
}

// Intersect returns the product t·u, and ok=false if it is empty.
func (t Term) Intersect(u Term) (Term, bool) {
	if !t.IntersectsTerm(u) {
		return Term{}, false
	}
	r := t.Clone()
	r.Pos.UnionWith(u.Pos)
	r.Neg.UnionWith(u.Neg)
	return r, true
}

// Eval evaluates the term on an assignment bitset (variable v true iff set).
func (t Term) Eval(assign cube.BitSet) bool {
	if !t.Pos.SubsetOf(assign) {
		return false
	}
	n := len(t.Neg)
	for i := 0; i < n; i++ {
		var a uint64
		if i < len(assign) {
			a = assign[i]
		}
		if t.Neg[i]&a != 0 {
			return false
		}
	}
	return true
}

// Key returns a map key uniquely identifying the term.
func (t Term) Key() string { return t.Pos.Key() + "|" + t.Neg.Key() }

// String renders the term in PLA-row style over n variables.
func (t Term) PLAString(n int) string {
	b := make([]byte, n)
	for i := 0; i < n; i++ {
		switch {
		case t.Pos.Has(i):
			b[i] = '1'
		case t.Neg.Has(i):
			b[i] = '0'
		default:
			b[i] = '-'
		}
	}
	return string(b)
}

// Cover is a set of product terms interpreted as their OR.
// The empty cover is constant 0.
type Cover struct {
	NumVars int
	Terms   []Term
}

// NewCover returns the constant-0 cover over n variables.
func NewCover(n int) *Cover { return &Cover{NumVars: n} }

// Universe returns the constant-1 cover (one universal term).
func Universe(n int) *Cover {
	c := NewCover(n)
	c.Terms = append(c.Terms, NewTerm(n))
	return c
}

// Clone returns a deep copy.
func (c *Cover) Clone() *Cover {
	out := &Cover{NumVars: c.NumVars, Terms: make([]Term, len(c.Terms))}
	for i, t := range c.Terms {
		out.Terms[i] = t.Clone()
	}
	return out
}

// Add appends a term.
func (c *Cover) Add(t Term) { c.Terms = append(c.Terms, t) }

// IsEmpty reports whether the cover has no terms (constant 0).
func (c *Cover) IsEmpty() bool { return len(c.Terms) == 0 }

// Literals returns the total literal count of the cover.
func (c *Cover) Literals() int {
	n := 0
	for _, t := range c.Terms {
		n += t.Literals()
	}
	return n
}

// Eval evaluates the cover on an assignment.
func (c *Cover) Eval(assign cube.BitSet) bool {
	for _, t := range c.Terms {
		if t.Eval(assign) {
			return true
		}
	}
	return false
}

// Support returns the set of variables appearing in any term.
func (c *Cover) Support() cube.BitSet {
	s := cube.NewBitSet(c.NumVars)
	for _, t := range c.Terms {
		s.UnionWith(t.Pos)
		s.UnionWith(t.Neg)
	}
	return s
}

// Cofactor returns the Shannon cofactor of the cover with respect to
// literal (v, phase): terms conflicting with the literal are dropped,
// matching literals are erased.
func (c *Cover) Cofactor(v int, phase bool) *Cover {
	out := &Cover{NumVars: c.NumVars, Terms: make([]Term, 0, len(c.Terms))}
	for _, t := range c.Terms {
		if phase {
			if t.Neg.Has(v) {
				continue
			}
		} else {
			if t.Pos.Has(v) {
				continue
			}
		}
		nt := t.Clone()
		nt.Free(v)
		out.Terms = append(out.Terms, nt)
	}
	return out
}

// CofactorTerm returns the cover cofactored against an entire term
// (the generalized cofactor used for containment checks).
func (c *Cover) CofactorTerm(u Term) *Cover {
	out := &Cover{NumVars: c.NumVars, Terms: make([]Term, 0, len(c.Terms))}
	for _, t := range c.Terms {
		if !t.IntersectsTerm(u) {
			continue
		}
		nt := t.Clone()
		nt.Pos.DifferenceWith(u.Pos)
		nt.Neg.DifferenceWith(u.Neg)
		out.Terms = append(out.Terms, nt)
	}
	return out
}

// mostBinateVar returns the splitting variable of the unate recursive
// paradigm: a binate variable (both polarities occur) before a unate one,
// then the one in the most terms, then the lowest index; -1 if no
// literals remain. It allocates nothing: the counts are kept for one
// 64-variable word at a time, and only the variables some term mentions
// are scored, in ascending order.
func (c *Cover) mostBinateVar() int {
	words := 0
	for _, t := range c.Terms {
		words = max(words, len(t.Pos), len(t.Neg))
	}
	var pos, neg [64]int
	best, bestScore := -1, -1
	for w := 0; w < words; w++ {
		var union uint64
		for _, t := range c.Terms {
			union |= countBits(&pos, t.Pos, w) | countBits(&neg, t.Neg, w)
		}
		for ; union != 0; union &= union - 1 {
			b := bits.TrailingZeros64(union)
			// Prefer binate (both polarities) variables, then high occurrence.
			score := pos[b] + neg[b]
			if pos[b] > 0 && neg[b] > 0 {
				score += 1 << 20
			}
			if score > bestScore {
				best, bestScore = w*64+b, score
			}
			pos[b], neg[b] = 0, 0
		}
	}
	return best
}

// countBits adds one to counts[b] for every bit b set in word w of s and
// returns that word (zero past the end of s).
func countBits(counts *[64]int, s cube.BitSet, w int) uint64 {
	if w >= len(s) {
		return 0
	}
	x := s[w]
	for y := x; y != 0; y &= y - 1 {
		counts[bits.TrailingZeros64(y)]++
	}
	return x
}

// IsTautology reports whether the cover is the constant-1 function,
// using the unate recursive paradigm.
func (c *Cover) IsTautology() bool {
	// Quick exits.
	for _, t := range c.Terms {
		if t.IsUniversal() {
			return true
		}
	}
	if len(c.Terms) == 0 {
		return false
	}
	v := c.mostBinateVar()
	if v < 0 {
		// All terms have literals but no variable appears: impossible,
		// guarded above; treat as non-tautology.
		return false
	}
	// Unate reduction: if v appears in only one polarity, terms with the
	// literal can never help cover the opposite half alone; still must
	// split. (Simple split is sound and fast enough at our sizes.)
	return c.Cofactor(v, true).IsTautology() && c.Cofactor(v, false).IsTautology()
}

// CoversTerm reports whether the cover contains every minterm of the term.
func (c *Cover) CoversTerm(u Term) bool {
	return c.CofactorTerm(u).IsTautology()
}

// Complement returns a cover of the complement function, via the unate
// recursive paradigm with Shannon merging.
func (c *Cover) Complement() *Cover {
	out, _ := c.complementBounded(1 << 62)
	return out
}

// ComplementBounded is Complement with a term budget: it returns
// ok=false (and a nil cover) as soon as the result would exceed
// maxTerms, which callers use to skip minimization of functions whose
// OFF-sets explode (e.g. wide disjoint disjunctions).
func (c *Cover) ComplementBounded(maxTerms int) (*Cover, bool) {
	return c.complementBounded(maxTerms)
}

func (c *Cover) complementBounded(maxTerms int) (*Cover, bool) {
	for _, t := range c.Terms {
		if t.IsUniversal() {
			return NewCover(c.NumVars), true // complement of 1 is 0
		}
	}
	if len(c.Terms) == 0 {
		return Universe(c.NumVars), true
	}
	if len(c.Terms) == 1 {
		// De Morgan on a single term: OR of complemented literals.
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
	cpos, ok := c.Cofactor(v, true).complementBounded(maxTerms)
	if !ok {
		return nil, false
	}
	cneg, ok := c.Cofactor(v, false).complementBounded(maxTerms)
	if !ok {
		return nil, false
	}
	if len(cpos.Terms)+len(cneg.Terms) > maxTerms {
		return nil, false
	}
	// The merge needs no containment scan. cpos and cneg are fresh, do not
	// mention v, and hold no duplicate, contained or contradictory term:
	// every base case is such a cover, and so is this merge, because adding
	// one literal to every term of a half keeps that, and no term holding
	// v contains or lies in a term holding v̄. Only the scan's ordering by
	// literal count stays, since callers see the term order.
	out := &Cover{NumVars: c.NumVars, Terms: make([]Term, 0, len(cpos.Terms)+len(cneg.Terms))}
	for _, t := range cpos.Terms {
		t.SetPos(v)
		out.Terms = append(out.Terms, t)
	}
	for _, t := range cneg.Terms {
		t.SetNeg(v)
		out.Terms = append(out.Terms, t)
	}
	sortByLiterals(out.Terms)
	return out, true
}

// sortByLiterals orders terms by ascending literal count, the order
// SingleTermContainment leaves a cover in. Each count is taken once.
// sort.Sort runs the algorithm sort.Slice runs, so the order of terms
// with equal counts is the one sort.Slice gives.
func sortByLiterals(ts []Term) {
	lits := make([]int, len(ts))
	for i, t := range ts {
		lits[i] = t.Literals()
	}
	sort.Sort(byLiterals{ts, lits})
}

// byLiterals sorts terms by their literal counts lits.
type byLiterals struct {
	terms []Term
	lits  []int
}

func (s byLiterals) Len() int           { return len(s.terms) }
func (s byLiterals) Less(i, j int) bool { return s.lits[i] < s.lits[j] }
func (s byLiterals) Swap(i, j int) {
	s.terms[i], s.terms[j] = s.terms[j], s.terms[i]
	s.lits[i], s.lits[j] = s.lits[j], s.lits[i]
}

// SingleTermContainment removes contradictory terms (constant-0 products)
// and terms contained in another single term.
func (c *Cover) SingleTermContainment() {
	sortByLiterals(c.Terms)
	var kept []Term
	var folds [][2]uint64 // fold of each kept term, for a quick reject
	for _, t := range c.Terms {
		if t.Contradicts() {
			continue
		}
		f := t.fold()
		contained := false
		for i, k := range kept {
			if folds[i][0]&^f[0] == 0 && folds[i][1]&^f[1] == 0 && k.Contains(t) {
				contained = true
				break
			}
		}
		if !contained {
			kept = append(kept, t)
			folds = append(folds, f)
		}
	}
	c.Terms = kept
}

// fold ORs the words of t's positive and of its negative literals. A term
// contains t only if its folds are subsets of t's.
func (t Term) fold() [2]uint64 {
	var f [2]uint64
	for _, w := range t.Pos {
		f[0] |= w
	}
	for _, w := range t.Neg {
		f[1] |= w
	}
	return f
}

// Intersect returns the product cover c·d.
func (c *Cover) Intersect(d *Cover) *Cover {
	out := NewCover(c.NumVars)
	for _, t := range c.Terms {
		for _, u := range d.Terms {
			if p, ok := t.Intersect(u); ok {
				out.Terms = append(out.Terms, p)
			}
		}
	}
	out.SingleTermContainment()
	return out
}

// TermIntersectsCover reports whether term t shares a minterm with cover d.
func TermIntersectsCover(t Term, d *Cover) bool {
	for _, u := range d.Terms {
		if t.IntersectsTerm(u) {
			return true
		}
	}
	return false
}

// Minimize runs an espresso-style expand / irredundant loop against the
// function's own OFF-set (computed once by complementation). The cover is
// modified in place and remains functionally identical.
//
// The loop runs over the cover's own support: when that takes fewer
// bitset words than the cover's variable space (a multilevel network's
// node covers live in a space of hundreds of signals but mention a
// handful), the cover is renamed onto [0, support size) in variable
// order, minimized there and renamed back. The result is the same term
// sequence, since every choice the loop makes (the split variable, lowest
// index on ties; the order literals are raised in; each sort) depends
// only on the relative order of the variables.
func (c *Cover) Minimize() {
	sup := c.Support()
	k := sup.Count()
	if len(cube.NewBitSet(k)) >= len(sup) {
		c.minimize()
		return
	}
	small := c.onSupport(sup, k)
	small.minimize()
	c.Terms = small.fromSupport(sup.Elements(), c.NumVars)
}

// onSupport returns c renamed onto the k = |sup| variables of sup ⊇
// c.Support(): the i-th smallest element of sup becomes variable i.
func (c *Cover) onSupport(sup cube.BitSet, k int) *Cover {
	below := make([]int, len(sup)) // elements of sup in the words before w
	for w := 1; w < len(sup); w++ {
		below[w] = below[w-1] + bits.OnesCount64(sup[w-1])
	}
	rename := func(dst, src cube.BitSet) {
		for w, x := range src {
			for ; x != 0; x &= x - 1 {
				b := bits.TrailingZeros64(x)
				dst.Set(below[w] + bits.OnesCount64(sup[w]&(1<<uint(b)-1)))
			}
		}
	}
	out := &Cover{NumVars: k, Terms: make([]Term, len(c.Terms))}
	for i, t := range c.Terms {
		nt := NewTerm(k)
		rename(nt.Pos, t.Pos)
		rename(nt.Neg, t.Neg)
		out.Terms[i] = nt
	}
	return out
}

// fromSupport undoes onSupport: variable i of c becomes vars[i] of an
// n-variable space.
func (c *Cover) fromSupport(vars []int, n int) []Term {
	out := make([]Term, len(c.Terms))
	for i, t := range c.Terms {
		nt := NewTerm(n)
		t.Pos.ForEach(func(v int) { nt.Pos.Set(vars[v]) })
		t.Neg.ForEach(func(v int) { nt.Neg.Set(vars[v]) })
		out[i] = nt
	}
	return out
}

// minimize is Minimize over the cover's own variable space.
func (c *Cover) minimize() {
	c.SingleTermContainment() // also drops contradictory (constant-0) terms
	if len(c.Terms) == 0 {
		return
	}
	// Bound the OFF-set: functions like wide disjoint disjunctions have
	// exponential complements; for those, containment + irredundancy is
	// all espresso's expand can safely do.
	limit := 50 * (len(c.Terms) + 20)
	off, ok := c.ComplementBounded(limit)
	if !ok {
		c.Irredundant()
		return
	}
	c.ExpandAgainst(off)
	c.Irredundant()
	// Second pass often helps after the cover shrank.
	c.ExpandAgainst(off)
	c.Irredundant()
}

// ExpandAgainst raises each term (removes literals) as long as the
// expanded term stays disjoint from the given OFF-set cover. Terms are
// processed largest-first so expanded terms can swallow smaller ones.
func (c *Cover) ExpandAgainst(off *Cover) {
	sort.Slice(c.Terms, func(i, j int) bool {
		return c.Terms[i].Literals() > c.Terms[j].Literals()
	})
	for i := range c.Terms {
		t := &c.Terms[i]
		// Try removing each literal, most-shared first would be better;
		// simple increasing order is adequate at benchmark sizes.
		lits := append(t.Pos.Elements(), t.Neg.Elements()...)
		for _, v := range lits {
			wasPos := t.Pos.Has(v)
			wasNeg := t.Neg.Has(v)
			t.Free(v)
			if TermIntersectsCover(*t, off) {
				// Restore via the raw bitsets: SetPos/SetNeg clear the
				// opposite phase, which would corrupt a (degenerate)
				// contradictory term.
				if wasPos {
					t.Pos.Set(v)
				}
				if wasNeg {
					t.Neg.Set(v)
				}
			}
		}
	}
	c.SingleTermContainment()
}

// Irredundant removes terms that are covered by the union of the others.
func (c *Cover) Irredundant() {
	// Largest terms are most likely essential; test smallest first.
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

// Equal reports whether the two covers denote the same function, decided
// by mutual containment (tautology checks).
func (c *Cover) Equal(d *Cover) bool {
	for _, t := range c.Terms {
		if !d.CoversTerm(t) {
			return false
		}
	}
	for _, t := range d.Terms {
		if !c.CoversTerm(t) {
			return false
		}
	}
	return true
}

// String renders the cover PLA-style, one term per line.
func (c *Cover) String() string {
	if c.IsEmpty() {
		return "(0)"
	}
	var b strings.Builder
	for i, t := range c.Terms {
		if i > 0 {
			b.WriteString(" + ")
		}
		b.WriteString(t.PLAString(c.NumVars))
	}
	return b.String()
}

// FromMinterms builds a cover from explicit minterm indices (bit i of the
// minterm index is the value of variable i) and minimizes it.
func FromMinterms(n int, minterms []int) *Cover {
	c := NewCover(n)
	for _, m := range minterms {
		t := NewTerm(n)
		for v := 0; v < n; v++ {
			if m&(1<<v) != 0 {
				t.SetPos(v)
			} else {
				t.SetNeg(v)
			}
		}
		c.Add(t)
	}
	c.Minimize()
	return c
}

// FromFunc builds a minimized cover of an arbitrary n-variable function
// given as a predicate over minterm indices. Practical for n ≤ ~16; it
// returns an error past 24 variables rather than enumerating 2^n
// minterms.
func FromFunc(n int, f func(m int) bool) (*Cover, error) {
	if n > 24 {
		return nil, fmt.Errorf("sop.FromFunc: %d variables is too many for truth-table enumeration", n)
	}
	var minterms []int
	for m := 0; m < 1<<n; m++ {
		if f(m) {
			minterms = append(minterms, m)
		}
	}
	return FromMinterms(n, minterms), nil
}
