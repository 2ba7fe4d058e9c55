// Package cube provides positive-literal cubes (products of variables) and
// ESOP (exclusive-or sum of products) cube lists, the core currency of
// fixed-polarity Reed-Muller synthesis.
//
// A cube here is a set of variable indices: the product of those variables.
// Polarity is handled one level up (package fprm) by interpreting variable i
// as either x_i or its complement according to a polarity vector, so inside
// this package all literals are positive and a cube is just a bitset.
package cube

import (
	"encoding/binary"
	"math/bits"
	"strconv"
	"strings"
)

// wordBits is the number of bits per bitset word.
const wordBits = 64

// BitSet is a fixed-capacity set of small non-negative integers used to
// represent variable supports and cubes. The zero value is an empty set of
// capacity 0; use NewBitSet to size it.
//
// Bounds behavior: queries (Has) tolerate any non-negative index —
// everything past the capacity is simply absent — because comparisons
// between sets of different capacities are routine (Equal, SubsetOf).
// Mutations (Set, Clear) require i in [0, capacity): silently dropping a
// write would corrupt the cube it was meant for, so an out-of-range
// mutation is a programmer invariant violation and panics with a
// descriptive message rather than the raw index error.
type BitSet []uint64

// NewBitSet returns an empty BitSet able to hold values in [0, n).
func NewBitSet(n int) BitSet {
	return make(BitSet, (n+wordBits-1)/wordBits)
}

// Clone returns an independent copy of s.
func (s BitSet) Clone() BitSet {
	t := make(BitSet, len(s))
	copy(t, s)
	return t
}

// Set adds i to the set. The index must be within the set's capacity
// (see the type comment): a write that cannot land is a call-site bug,
// not a data condition, and panics.
func (s BitSet) Set(i int) {
	w := i / wordBits
	if i < 0 || w >= len(s) {
		panic("cube: BitSet.Set index out of range")
	}
	s[w] |= 1 << uint(i%wordBits)
}

// Clear removes i from the set. Same bounds invariant as Set: clearing a
// bit the set cannot hold indicates the caller sized the set wrong.
func (s BitSet) Clear(i int) {
	w := i / wordBits
	if i < 0 || w >= len(s) {
		panic("cube: BitSet.Clear index out of range")
	}
	s[w] &^= 1 << uint(i%wordBits)
}

// Has reports whether i is in the set.
func (s BitSet) Has(i int) bool {
	w := i / wordBits
	if w >= len(s) {
		return false
	}
	return s[w]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (s BitSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the set has no elements.
func (s BitSet) IsEmpty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same elements.
// The sets may have different capacities.
func (s BitSet) Equal(t BitSet) bool {
	long, short := s, t
	if len(long) < len(short) {
		long, short = short, long
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is also in t.
func (s BitSet) SubsetOf(t BitSet) bool {
	for i, w := range s {
		var tw uint64
		if i < len(t) {
			tw = t[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s and t share at least one element.
func (s BitSet) Intersects(t BitSet) bool {
	n := len(s)
	if len(t) < n {
		n = len(t)
	}
	for i := 0; i < n; i++ {
		if s[i]&t[i] != 0 {
			return true
		}
	}
	return false
}

// UnionWith adds all elements of t to s. t must not be larger than s.
func (s BitSet) UnionWith(t BitSet) {
	for i, w := range t {
		s[i] |= w
	}
}

// IntersectWith removes from s all elements not in t.
func (s BitSet) IntersectWith(t BitSet) {
	for i := range s {
		var tw uint64
		if i < len(t) {
			tw = t[i]
		}
		s[i] &= tw
	}
}

// DifferenceWith removes all elements of t from s.
func (s BitSet) DifferenceWith(t BitSet) {
	n := len(s)
	if len(t) < n {
		n = len(t)
	}
	for i := 0; i < n; i++ {
		s[i] &^= t[i]
	}
}

// ForEach calls fn for every element of the set in increasing order.
func (s BitSet) ForEach(fn func(i int)) {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Elements returns the members of the set in increasing order.
func (s BitSet) Elements() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// Min returns the smallest element, or -1 if the set is empty.
func (s BitSet) Min() int {
	for wi, w := range s {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Word returns word w of s, zero past its end.
func (s BitSet) Word(w int) uint64 {
	if w < len(s) {
		return s[w]
	}
	return 0
}

// AppendKey appends to buf the raw bytes of s without the element drop
// (a negative drop keeps every element), trailing zero words left out,
// so sets that are Equal get equal keys whatever their capacity. It is
// a cheaper map key than Key, whose hex encoding orders ties elsewhere.
func (s BitSet) AppendKey(buf []byte, drop int) []byte {
	word := func(i int) uint64 {
		if drop >= 0 && i == drop/wordBits {
			return s[i] &^ (1 << uint(drop%wordBits))
		}
		return s[i]
	}
	end := len(s)
	for end > 0 && word(end-1) == 0 {
		end--
	}
	for i := range s[:end] {
		buf = binary.LittleEndian.AppendUint64(buf, word(i))
	}
	return buf
}

// Key returns a map-key string uniquely identifying the set contents
// (trailing zero words are not significant).
func (s BitSet) Key() string {
	end := len(s)
	for end > 0 && s[end-1] == 0 {
		end--
	}
	var b strings.Builder
	for i := 0; i < end; i++ {
		b.WriteString(strconv.FormatUint(s[i], 16))
		b.WriteByte(',')
	}
	return b.String()
}

// String renders the set as {i, j, ...}.
func (s BitSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(strconv.Itoa(i))
	})
	b.WriteByte('}')
	return b.String()
}

// Components partitions the indices 0..n-1 into the connected components
// of the relation "set(i) and set(j) share an element": the support
// partition of the paper's Section 3, whose groups factor independently
// and join through a balanced XOR tree. Components come in the order of
// their first index and list their indices in ascending order; an index
// whose set is empty forms a component of its own.
func Components(n int, set func(i int) BitSet) [][]int {
	parent := make([]int, n)
	size := 0 // one past the largest element of any set
	for i := range parent {
		parent[i] = i
		s := set(i)
		end := len(s)
		for end > 0 && s[end-1] == 0 {
			end--
		}
		if end > 0 {
			size = max(size, (end-1)*wordBits+bits.Len64(s[end-1]))
		}
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	// owner[v] is one plus the first index whose set holds v (0: none
	// yet); every later holder of v joins that index's component.
	owner := make([]int, size)
	for i := range parent {
		set(i).ForEach(func(v int) {
			if owner[v] == 0 {
				owner[v] = i + 1
			} else {
				parent[find(i)] = find(owner[v] - 1)
			}
		})
	}
	// slot[r] is one plus the position in out of root r's component.
	var out [][]int
	slot := make([]int, n)
	for i := range parent {
		r := find(i)
		if slot[r] == 0 {
			out = append(out, nil)
			slot[r] = len(out)
		}
		out[slot[r]-1] = append(out[slot[r]-1], i)
	}
	return out
}
