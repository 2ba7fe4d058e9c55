package cube

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestBitSetBasics(t *testing.T) {
	s := NewBitSet(130)
	if !s.IsEmpty() {
		t.Fatal("new set not empty")
	}
	s.Set(0)
	s.Set(63)
	s.Set(64)
	s.Set(129)
	if got := s.Count(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	for _, i := range []int{0, 63, 64, 129} {
		if !s.Has(i) {
			t.Errorf("Has(%d) = false, want true", i)
		}
	}
	if s.Has(1) || s.Has(128) || s.Has(500) {
		t.Error("Has reports absent elements")
	}
	s.Clear(64)
	if s.Has(64) {
		t.Error("Clear(64) did not remove element")
	}
	if got := s.Elements(); len(got) != 3 || got[0] != 0 || got[1] != 63 || got[2] != 129 {
		t.Errorf("Elements = %v", got)
	}
	if s.Min() != 0 {
		t.Errorf("Min = %d, want 0", s.Min())
	}
	s.Clear(0)
	if s.Min() != 63 {
		t.Errorf("Min = %d, want 63", s.Min())
	}
}

func TestBitSetMinEmpty(t *testing.T) {
	if NewBitSet(10).Min() != -1 {
		t.Error("Min of empty set should be -1")
	}
}

func TestBitSetSetOps(t *testing.T) {
	a := NewBitSet(100)
	b := NewBitSet(100)
	a.Set(1)
	a.Set(70)
	b.Set(70)
	b.Set(99)
	if !a.Intersects(b) {
		t.Error("a and b share 70 but Intersects is false")
	}
	u := a.Clone()
	u.UnionWith(b)
	if u.Count() != 3 {
		t.Errorf("union count = %d, want 3", u.Count())
	}
	i := a.Clone()
	i.IntersectWith(b)
	if i.Count() != 1 || !i.Has(70) {
		t.Errorf("intersection = %v", i)
	}
	d := a.Clone()
	d.DifferenceWith(b)
	if d.Count() != 1 || !d.Has(1) {
		t.Errorf("difference = %v", d)
	}
	if !i.SubsetOf(a) || !i.SubsetOf(b) {
		t.Error("intersection not subset of operands")
	}
	if a.SubsetOf(b) {
		t.Error("a should not be subset of b")
	}
}

func TestBitSetEqualDifferentCapacity(t *testing.T) {
	a := NewBitSet(10)
	b := NewBitSet(200)
	a.Set(3)
	b.Set(3)
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("equal sets with different capacities compare unequal")
	}
	b.Set(150)
	if a.Equal(b) || b.Equal(a) {
		t.Error("unequal sets compare equal")
	}
}

func TestBitSetKeyIgnoresTrailingZeros(t *testing.T) {
	a := NewBitSet(10)
	b := NewBitSet(500)
	a.Set(5)
	b.Set(5)
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
}

func TestCubeAlgebra(t *testing.T) {
	c := New(8, 0, 2, 5)
	d := New(8, 0, 2)
	if !d.DividesInto(c) {
		t.Fatal("x0x2 should divide x0x2x5")
	}
	q := d.Quotient(c)
	if q.String() != "x5" {
		t.Errorf("quotient = %s, want x5", q)
	}
	p := d.Times(q)
	if !p.Equal(c) {
		t.Errorf("d*q = %s, want %s", p, c)
	}
	one := One(8)
	if !one.IsOne() || one.String() != "1" {
		t.Error("One misbehaves")
	}
	if !one.DividesInto(c) {
		t.Error("1 should divide everything")
	}
	if c.DividesInto(d) {
		t.Error("larger cube cannot divide smaller")
	}
}

func TestCubeEval(t *testing.T) {
	c := New(4, 1, 3)
	assign := NewBitSet(4)
	if c.Eval(assign) {
		t.Error("cube true on empty assignment")
	}
	assign.Set(1)
	assign.Set(3)
	if !c.Eval(assign) {
		t.Error("cube false when all its vars set")
	}
	assign.Set(0) // extra variables don't matter
	if !c.Eval(assign) {
		t.Error("cube false with extra vars set")
	}
}

func TestListCanonicalizeCancelsPairs(t *testing.T) {
	l := NewList(4)
	l.Add(New(4, 0))
	l.Add(New(4, 1))
	l.Add(New(4, 0)) // cancels first
	l.Canonicalize()
	if l.Len() != 1 || l.Cubes[0].String() != "x1" {
		t.Errorf("canonicalize failed: %s", l)
	}
	// Triple occurrence leaves one.
	m := NewList(4)
	for i := 0; i < 3; i++ {
		m.Add(New(4, 2))
	}
	m.Canonicalize()
	if m.Len() != 1 {
		t.Errorf("odd multiplicity should leave one cube, got %d", m.Len())
	}
}

func TestListEvalXorSemantics(t *testing.T) {
	// f = x0 ^ x0x1: truth table 00->0 10->1 01->0 11->0
	l := NewList(2)
	l.Add(New(2, 0))
	l.Add(New(2, 0, 1))
	cases := []struct {
		a0, a1 int
		want   bool
	}{{0, 0, false}, {1, 0, true}, {0, 1, false}, {1, 1, false}}
	for _, tc := range cases {
		assign := NewBitSet(2)
		if tc.a0 == 1 {
			assign.Set(0)
		}
		if tc.a1 == 1 {
			assign.Set(1)
		}
		if got := l.Eval(assign); got != tc.want {
			t.Errorf("f(%d,%d) = %v, want %v", tc.a0, tc.a1, got, tc.want)
		}
	}
}

func TestDivideCubeIdentity(t *testing.T) {
	// f = x0x1 ^ x0x2 ^ x3. Divide by x0: q = x1^x2, r = x3.
	l := NewList(4)
	l.Add(New(4, 0, 1))
	l.Add(New(4, 0, 2))
	l.Add(New(4, 3))
	q, r := l.DivideCube(New(4, 0))
	if q.Len() != 2 || r.Len() != 1 {
		t.Fatalf("q=%s r=%s", q, r)
	}
	// Verify l == x0*q ^ r pointwise over all 16 assignments.
	rebuilt := q.MultiplyVar(0).Xor(r)
	for a := 0; a < 16; a++ {
		assign := NewBitSet(4)
		for v := 0; v < 4; v++ {
			if a&(1<<v) != 0 {
				assign.Set(v)
			}
		}
		if l.Eval(assign) != rebuilt.Eval(assign) {
			t.Fatalf("division identity broken at assignment %04b", a)
		}
	}
}

func TestDisjointSupportGroups(t *testing.T) {
	// {x0x1, x1x2} overlap; {x3} separate; {x4x5} separate.
	l := NewList(6)
	l.Add(New(6, 0, 1))
	l.Add(New(6, 1, 2))
	l.Add(New(6, 3))
	l.Add(New(6, 4, 5))
	groups := l.DisjointSupportGroups()
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3", len(groups))
	}
	sizes := map[int]int{}
	for _, g := range groups {
		sizes[g.Len()]++
		// Supports of distinct groups must not intersect.
		for _, h := range groups {
			if g != h && g.Support().Intersects(h.Support()) {
				t.Error("groups share support")
			}
		}
	}
	if sizes[2] != 1 || sizes[1] != 2 {
		t.Errorf("group size distribution = %v", sizes)
	}
}

func TestDisjointSupportGroupsConstantCube(t *testing.T) {
	l := NewList(3)
	l.Add(One(3))
	l.Add(New(3, 0))
	groups := l.DisjointSupportGroups()
	if len(groups) != 2 {
		t.Fatalf("constant cube should be its own group; got %d groups", len(groups))
	}
}

func TestListXor(t *testing.T) {
	a := NewList(3)
	a.Add(New(3, 0))
	a.Add(New(3, 1))
	b := NewList(3)
	b.Add(New(3, 1))
	b.Add(New(3, 2))
	x := a.Xor(b)
	// x0 ^ x2 remains after x1 cancels.
	if x.Len() != 2 {
		t.Fatalf("xor len = %d, want 2: %s", x.Len(), x)
	}
	if !x.Support().Has(0) || !x.Support().Has(2) || x.Support().Has(1) {
		t.Errorf("xor support wrong: %s", x)
	}
}

func TestLiteralCounts(t *testing.T) {
	l := NewList(4)
	l.Add(New(4, 0, 1))
	l.Add(New(4, 0, 2))
	l.Add(New(4, 0))
	counts := l.LiteralCounts()
	want := []int{3, 1, 1, 0}
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("count[%d] = %d, want %d", i, counts[i], w)
		}
	}
	if l.Literals() != 5 {
		t.Errorf("Literals = %d, want 5", l.Literals())
	}
}

// Property: for random ESOPs and random divisor cubes, the division
// identity f = d*q ^ r holds pointwise.
func TestQuickDivisionIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5) // 3..7 vars
		l := NewList(n)
		numCubes := 1 + rng.Intn(8)
		for i := 0; i < numCubes; i++ {
			c := One(n)
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 1 {
					c.Vars.Set(v)
				}
			}
			l.Add(c)
		}
		l.Canonicalize()
		d := One(n)
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				d.Vars.Set(v)
			}
		}
		q, r := l.DivideCube(d)
		// rebuild d*q ^ r
		rebuilt := NewList(n)
		for _, c := range q.Cubes {
			rebuilt.Add(c.Times(d))
		}
		for _, c := range r.Cubes {
			rebuilt.Add(c.Clone())
		}
		for a := 0; a < 1<<n; a++ {
			assign := NewBitSet(n)
			for v := 0; v < n; v++ {
				if a&(1<<v) != 0 {
					assign.Set(v)
				}
			}
			if l.Eval(assign) != rebuilt.Eval(assign) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Xor is its own inverse: (a ⊕ b) ⊕ b == a (canonicalized).
func TestQuickXorInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		mk := func() *List {
			l := NewList(n)
			for i := 0; i < 1+rng.Intn(6); i++ {
				c := One(n)
				for v := 0; v < n; v++ {
					if rng.Intn(2) == 1 {
						c.Vars.Set(v)
					}
				}
				l.Add(c)
			}
			l.Canonicalize()
			return l
		}
		a, b := mk(), mk()
		return a.Xor(b).Xor(b).Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Sort orders cubes exactly as the element-list comparison it replaced,
// on random lists with repeats and mixed bitset capacities.
func TestSortMatchesElementOrder(t *testing.T) {
	elementLess := func(cs []Cube) func(i, j int) bool {
		return func(i, j int) bool {
			a, b := cs[i], cs[j]
			if a.Size() != b.Size() {
				return a.Size() < b.Size()
			}
			ae, be := a.Vars.Elements(), b.Vars.Elements()
			for k := 0; k < len(ae) && k < len(be); k++ {
				if ae[k] != be[k] {
					return ae[k] < be[k]
				}
			}
			return len(ae) < len(be)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(200)
		l := NewList(n)
		for j := 0; j < rng.Intn(60); j++ {
			if j > 0 && rng.Intn(6) == 0 {
				l.Add(l.Cubes[rng.Intn(j)].Clone())
				continue
			}
			c := One(n + 64*rng.Intn(2))
			for k := 0; k < rng.Intn(6); k++ {
				c.Vars.Set(rng.Intn(n))
			}
			l.Add(c)
		}
		want := l.Clone()
		sort.Slice(want.Cubes, elementLess(want.Cubes))
		l.Sort()
		for j := range l.Cubes {
			if !l.Cubes[j].Equal(want.Cubes[j]) {
				t.Fatalf("list %d, cube %d: %v, want %v", i, j, l.Cubes[j], want.Cubes[j])
			}
		}
	}
}

// divideListRef is DivideList keyed by BitSet.Key strings, one map of
// quotients per divisor cube: the reference the raw-word version must
// match cube for cube.
func divideListRef(l, d *List) (quotient, remainder *List) {
	quotient = NewList(l.NumVars)
	remainder = NewList(l.NumVars)
	if d.Len() == 0 {
		remainder = l.Clone()
		return quotient, remainder
	}
	var qKeys map[string]Cube
	for _, dc := range d.Cubes {
		cur := make(map[string]Cube)
		for _, c := range l.Cubes {
			if dc.DividesInto(c) {
				q := dc.Quotient(c)
				cur[q.Key()] = q
			}
		}
		if qKeys == nil {
			qKeys = cur
		} else {
			for k := range qKeys {
				if _, ok := cur[k]; !ok {
					delete(qKeys, k)
				}
			}
		}
		if len(qKeys) == 0 {
			remainder = l.Clone()
			return NewList(l.NumVars), remainder
		}
	}
	covered := make(map[string]bool)
	products := 0
	for _, q := range qKeys {
		quotient.Add(q.Clone())
		for _, dc := range d.Cubes {
			covered[dc.Times(q).Key()] = true
			products++
		}
	}
	if len(covered) != products {
		return NewList(l.NumVars), l.Clone()
	}
	for _, c := range l.Cubes {
		if !covered[c.Key()] {
			remainder.Add(c.Clone())
		}
	}
	quotient.Sort()
	remainder.Sort()
	return quotient, remainder
}

// TestDivideListMatchesReference divides random ESOPs built as d·Q ⊕ R,
// with duplicate cubes, colliding products and cubes of several word
// lengths (equal sets with different capacities must share a key), and
// requires DivideList's quotient and remainder to equal the reference's
// word for word.
func TestDivideListMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randCube := func(n, width int) Cube {
		c := One(n + 64*rng.Intn(2)) // sometimes one spare zero word
		for v := 0; v < width; v++ {
			if rng.Intn(3) == 0 {
				c.Vars.Set(rng.Intn(n))
			}
		}
		return c
	}
	nonEmpty := 0
	for i := 0; i < 2000; i++ {
		n := []int{6, 70, 130}[rng.Intn(3)]
		d, q, l := NewList(n), NewList(n), NewList(n)
		for k := 1 + rng.Intn(3); k > 0; k-- {
			d.Add(randCube(n, 3))
		}
		for k := rng.Intn(5); k > 0; k-- {
			q.Add(randCube(n, 6))
		}
		for _, qc := range q.Cubes {
			for _, dc := range d.Cubes {
				l.Add(qc.Times(dc))
			}
		}
		for k := rng.Intn(6); k > 0; k-- {
			l.Add(randCube(n, 8))
		}
		if rng.Intn(4) == 0 && l.Len() > 0 {
			l.Add(l.Cubes[rng.Intn(l.Len())].Clone())
		}
		rng.Shuffle(l.Len(), func(a, b int) { l.Cubes[a], l.Cubes[b] = l.Cubes[b], l.Cubes[a] })
		gq, gr := l.DivideList(d)
		wq, wr := divideListRef(l, d)
		if !reflect.DeepEqual(gq, wq) || !reflect.DeepEqual(gr, wr) {
			t.Fatalf("case %d: l=%v d=%v\nDivideList q=%v r=%v\nreference  q=%v r=%v",
				i, l.Cubes, d.Cubes, gq.Cubes, gr.Cubes, wq.Cubes, wr.Cubes)
		}
		if gq.Len() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 500 {
		t.Errorf("only %d of 2000 divisions found a quotient", nonEmpty)
	}
}
