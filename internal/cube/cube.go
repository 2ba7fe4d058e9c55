package cube

import (
	"fmt"
	"sort"
	"strings"
)

// Cube is a product of positive literals over variables [0, NumVars).
// The empty cube is the constant-1 cube.
type Cube struct {
	Vars BitSet // set of variable indices present in the product
}

// New returns the cube containing exactly the given variables.
func New(numVars int, vars ...int) Cube {
	c := Cube{Vars: NewBitSet(numVars)}
	for _, v := range vars {
		c.Vars.Set(v)
	}
	return c
}

// One returns the constant-1 cube (empty product) over numVars variables.
func One(numVars int) Cube { return Cube{Vars: NewBitSet(numVars)} }

// Clone returns an independent copy of c.
func (c Cube) Clone() Cube { return Cube{Vars: c.Vars.Clone()} }

// IsOne reports whether c is the constant-1 cube.
func (c Cube) IsOne() bool { return c.Vars.IsEmpty() }

// Size returns the number of literals in the cube.
func (c Cube) Size() int { return c.Vars.Count() }

// Has reports whether variable v appears in the cube.
func (c Cube) Has(v int) bool { return c.Vars.Has(v) }

// Equal reports whether two cubes are the same product.
func (c Cube) Equal(d Cube) bool { return c.Vars.Equal(d.Vars) }

// DividesInto reports whether c divides d, i.e. every literal of c appears
// in d (so d = c * quotient for some cube quotient).
func (c Cube) DividesInto(d Cube) bool { return c.Vars.SubsetOf(d.Vars) }

// Quotient returns d / c, valid only when c divides d.
func (c Cube) Quotient(d Cube) Cube {
	q := d.Clone()
	q.Vars.DifferenceWith(c.Vars)
	return q
}

// Times returns the product c * d.
func (c Cube) Times(d Cube) Cube {
	p := c.Clone()
	if len(d.Vars) > len(p.Vars) {
		p2 := Cube{Vars: d.Vars.Clone()}
		p2.Vars.UnionWith(c.Vars)
		return p2
	}
	p.Vars.UnionWith(d.Vars)
	return p
}

// Key returns a map key uniquely identifying the cube.
func (c Cube) Key() string { return c.Vars.Key() }

// Eval evaluates the cube on an assignment given as a bitset of true
// variables: the product is 1 iff all its variables are set.
func (c Cube) Eval(assign BitSet) bool { return c.Vars.SubsetOf(assign) }

// String renders the cube as x0*x3*... or "1" for the constant cube.
func (c Cube) String() string {
	if c.IsOne() {
		return "1"
	}
	var parts []string
	c.Vars.ForEach(func(v int) { parts = append(parts, fmt.Sprintf("x%d", v)) })
	return strings.Join(parts, "*")
}

// List is an ESOP: the XOR-sum of its cubes. The empty list is constant 0.
// A List is not automatically kept in canonical (duplicate-free) form; use
// Canonicalize to cancel duplicate cubes pairwise (a ⊕ a = 0).
type List struct {
	NumVars int
	Cubes   []Cube
}

// NewList returns an empty (constant-0) ESOP over numVars variables.
func NewList(numVars int) *List { return &List{NumVars: numVars} }

// Clone returns a deep copy of the list.
func (l *List) Clone() *List {
	out := &List{NumVars: l.NumVars, Cubes: make([]Cube, len(l.Cubes))}
	for i, c := range l.Cubes {
		out.Cubes[i] = c.Clone()
	}
	return out
}

// Add appends a cube to the XOR-sum.
func (l *List) Add(c Cube) { l.Cubes = append(l.Cubes, c) }

// IsZero reports whether the list is the constant-0 function (no cubes).
// Call Canonicalize first if duplicates may be present.
func (l *List) IsZero() bool { return len(l.Cubes) == 0 }

// Len returns the number of cubes.
func (l *List) Len() int { return len(l.Cubes) }

// Literals returns the total number of literals over all cubes.
func (l *List) Literals() int {
	n := 0
	for _, c := range l.Cubes {
		n += c.Size()
	}
	return n
}

// Canonicalize cancels duplicate cubes pairwise (x ⊕ x = 0) and sorts the
// remaining cubes for deterministic output.
func (l *List) Canonicalize() {
	count := make(map[string]int, len(l.Cubes))
	keep := make(map[string]Cube, len(l.Cubes))
	for _, c := range l.Cubes {
		k := c.Key()
		count[k]++
		keep[k] = c
	}
	l.Cubes = l.Cubes[:0]
	for k, n := range count {
		if n%2 == 1 {
			l.Cubes = append(l.Cubes, keep[k])
		}
	}
	l.Sort()
}

// Sort orders cubes by size then lexicographically by variable set,
// giving deterministic iteration order.
func (l *List) Sort() {
	sort.Slice(l.Cubes, func(i, j int) bool {
		a, b := l.Cubes[i].Vars, l.Cubes[j].Vars
		if sa, sb := a.Count(), b.Count(); sa != sb {
			return sa < sb
		}
		// Of two equal-size sets, the one holding the lowest variable
		// they differ in has the smaller element where their ascending
		// element lists first differ.
		for w := 0; w < len(a) || w < len(b); w++ {
			if x := a.Word(w) ^ b.Word(w); x != 0 {
				return a.Word(w)&(x&-x) != 0
			}
		}
		return false
	})
}

// Support returns the set of variables appearing in any cube.
func (l *List) Support() BitSet {
	s := NewBitSet(l.NumVars)
	for _, c := range l.Cubes {
		s.UnionWith(c.Vars)
	}
	return s
}

// Eval evaluates the ESOP on an assignment: XOR of all activated cubes.
func (l *List) Eval(assign BitSet) bool {
	v := false
	for _, c := range l.Cubes {
		if c.Eval(assign) {
			v = !v
		}
	}
	return v
}

// Xor returns the ESOP l ⊕ m in canonical form.
func (l *List) Xor(m *List) *List {
	out := l.Clone()
	for _, c := range m.Cubes {
		out.Add(c.Clone())
	}
	out.Canonicalize()
	return out
}

// MultiplyVar returns the ESOP x_v * l (distributes over XOR).
func (l *List) MultiplyVar(v int) *List {
	out := l.Clone()
	for i := range out.Cubes {
		out.Cubes[i].Vars.Set(v)
	}
	out.Canonicalize()
	return out
}

// DivideCube performs algebraic (weak) division of the ESOP by cube d:
// l = d*quotient ⊕ remainder, where the quotient collects the cubes
// divisible by d (with d removed) and the remainder the rest. Over GF(2)
// this identity is exact for any d.
func (l *List) DivideCube(d Cube) (quotient, remainder *List) {
	quotient = NewList(l.NumVars)
	remainder = NewList(l.NumVars)
	for _, c := range l.Cubes {
		if d.DividesInto(c) {
			quotient.Add(d.Quotient(c))
		} else {
			remainder.Add(c.Clone())
		}
	}
	return quotient, remainder
}

// DivideList performs weak algebraic division of the ESOP l by the
// multi-cube ESOP divisor d: quotient = the largest cube set Q such that
// every cube of d×Q appears in l, remainder = the cubes of l not covered.
// The identity l = d·quotient ⊕ remainder holds exactly (no cancellation
// occurs because d×Q ⊆ l as cube sets). A nil quotient (len 0) means the
// division found nothing.
func (l *List) DivideList(d *List) (quotient, remainder *List) {
	quotient = NewList(l.NumVars)
	remainder = NewList(l.NumVars)
	if d.Len() == 0 {
		remainder = l.Clone()
		return quotient, remainder
	}
	// Cubes are keyed by their raw words (BitSet.AppendKey): the keys
	// stay inside this function, and List.Sort orders the quotient
	// without them.
	var buf []byte
	var tmp BitSet
	// Quotient candidates: intersection over divisor cubes of {c/dc}.
	// The first divisor cube proposes them (of equal quotients the last
	// one is kept); round[i] is the last divisor cube whose quotients
	// all held qs[i] so far.
	pos := make(map[string]int)
	var qs []Cube
	var round []int
	alive := 0
	for di, dc := range d.Cubes {
		alive = 0
		for _, c := range l.Cubes {
			if !dc.DividesInto(c) {
				continue
			}
			tmp = append(tmp[:0], c.Vars...)
			tmp.DifferenceWith(dc.Vars)
			buf = tmp.AppendKey(buf[:0], -1)
			i, ok := pos[string(buf)]
			switch {
			case di == 0 && ok:
				qs[i] = Cube{Vars: tmp.Clone()}
			case di == 0:
				pos[string(buf)] = len(qs)
				qs = append(qs, Cube{Vars: tmp.Clone()})
				round = append(round, 0)
				alive++
			case ok && round[i] == di-1:
				round[i] = di
				alive++
			}
		}
		if alive == 0 {
			remainder = l.Clone()
			return NewList(l.NumVars), remainder
		}
	}
	last := len(d.Cubes) - 1
	covered := make(map[string]bool, alive*len(d.Cubes))
	products := 0
	for i, q := range qs {
		if round[i] != last {
			continue
		}
		quotient.Add(q)
		for _, dc := range d.Cubes {
			buf = dc.Times(q).Vars.AppendKey(buf[:0], -1)
			covered[string(buf)] = true
			products++
		}
	}
	if len(covered) != products {
		// Two divisor×quotient products collided; in GF(2) they would
		// cancel and break the division identity. Report no quotient.
		return NewList(l.NumVars), l.Clone()
	}
	for _, c := range l.Cubes {
		if buf = c.Vars.AppendKey(buf[:0], -1); !covered[string(buf)] {
			remainder.Add(c.Clone())
		}
	}
	quotient.Sort()
	remainder.Sort()
	return quotient, remainder
}

// Key returns a canonical string identifying the cube multiset (the list
// must be canonicalized/sorted first for stability across orders; Key
// sorts internally so any order works).
func (l *List) Key() string {
	keys := make([]string, len(l.Cubes))
	for i, c := range l.Cubes {
		keys[i] = c.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// LiteralCounts returns, for each variable, the number of cubes containing
// it. Useful for choosing division candidates.
func (l *List) LiteralCounts() []int {
	counts := make([]int, l.NumVars)
	for _, c := range l.Cubes {
		c.Vars.ForEach(func(v int) { counts[v]++ })
	}
	return counts
}

// Equal reports whether two canonicalized lists contain the same cubes.
func (l *List) Equal(m *List) bool {
	if len(l.Cubes) != len(m.Cubes) {
		return false
	}
	seen := make(map[string]int, len(l.Cubes))
	for _, c := range l.Cubes {
		seen[c.Key()]++
	}
	for _, c := range m.Cubes {
		seen[c.Key()]--
	}
	for _, n := range seen {
		if n != 0 {
			return false
		}
	}
	return true
}

// String renders the ESOP as "c1 ^ c2 ^ ..." or "0".
func (l *List) String() string {
	if l.IsZero() {
		return "0"
	}
	parts := make([]string, len(l.Cubes))
	for i, c := range l.Cubes {
		parts[i] = c.String()
	}
	return strings.Join(parts, " ^ ")
}

// DisjointSupportGroups partitions the cubes into groups such that any two
// distinct groups have disjoint variable supports (the Components of the
// cube supports). Constant-1 cubes, having empty support, each form their
// own group. Groups are returned in a deterministic order.
func (l *List) DisjointSupportGroups() []*List {
	comps := Components(len(l.Cubes), func(i int) BitSet { return l.Cubes[i].Vars })
	out := make([]*List, len(comps))
	for k, comp := range comps {
		g := &List{NumVars: l.NumVars, Cubes: make([]Cube, len(comp))}
		for j, i := range comp {
			g.Cubes[j] = l.Cubes[i].Clone()
		}
		out[k] = g
	}
	return out
}
