package cube

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// componentsRef is the support partition the factor emitter's emitXor
// used to build itself: a union-find over every pair of sets that
// Intersects, components in the order of their first index. Components
// must match it index for index.
func componentsRef(sets []BitSet) [][]int {
	parent := make([]int, len(sets))
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for i := range sets {
		for j := i + 1; j < len(sets); j++ {
			if sets[i].Intersects(sets[j]) {
				parent[find(j)] = find(i)
			}
		}
	}
	comps := make(map[int][]int)
	var order []int
	for i := range sets {
		r := find(i)
		if _, ok := comps[r]; !ok {
			order = append(order, r)
		}
		comps[r] = append(comps[r], i)
	}
	var out [][]int
	for _, r := range order {
		out = append(out, comps[r])
	}
	return out
}

// wordKeyRef is the raw-word key DivideList used to build itself: it
// overwrites buf with s's words, trailing zero words dropped.
func wordKeyRef(buf []byte, s BitSet) []byte {
	end := len(s)
	for end > 0 && s[end-1] == 0 {
		end--
	}
	buf = buf[:0]
	for _, w := range s[:end] {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// cubeKeyRef is the key fprm's greedy polarity search used to build
// itself: it appends the bytes of vars without drop (-1 drops nothing),
// trailing zero words left out.
func cubeKeyRef(buf []byte, vars BitSet, drop int) []byte {
	end := len(vars)
	word := func(w int) uint64 {
		if drop >= 0 && w == drop/64 {
			return vars[w] &^ (1 << uint(drop%64))
		}
		return vars[w]
	}
	for end > 0 && word(end-1) == 0 {
		end--
	}
	for w := 0; w < end; w++ {
		buf = binary.LittleEndian.AppendUint64(buf, word(w))
	}
	return buf
}

// TestComponentsMatchReference partitions random lists of 0–40 sets over
// 1–200 variables, with empty sets, duplicate sets and sets carrying a
// spare zero word, and requires Components to equal the pairwise
// union-find's partition.
func TestComponentsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	merged := 0
	for i := 0; i < 3000; i++ {
		nv := 1 + rng.Intn(200)
		sets := make([]BitSet, rng.Intn(41))
		for j := range sets {
			s := NewBitSet(nv + 64*rng.Intn(2))
			switch {
			case j > 0 && rng.Intn(6) == 0:
				s = sets[rng.Intn(j)].Clone()
			case rng.Intn(8) == 0:
				// empty
			default:
				for k := 1 + rng.Intn(4); k > 0; k-- {
					s.Set(rng.Intn(nv))
				}
			}
			sets[j] = s
		}
		got := Components(len(sets), func(i int) BitSet { return sets[i] })
		want := componentsRef(sets)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: sets %v\nComponents %v\nreference  %v", i, sets, got, want)
		}
		if len(got) < len(sets) {
			merged++
		}
	}
	if merged < 1000 {
		t.Errorf("only %d of 3000 cases joined any two sets", merged)
	}
}

// TestAppendKeyMatchesReference keys random sets of one to four words,
// with elements at word boundaries and trailing zero words, and requires
// AppendKey to equal DivideList's old key without a drop and the greedy
// search's old key with each element, and some non-elements, dropped.
func TestAppendKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	prefix := []byte("p")
	var got, want []byte
	for i := 0; i < 5000; i++ {
		words := 1 + rng.Intn(4)
		s := NewBitSet(64 * words)
		for k := rng.Intn(6); k > 0; k-- {
			s.Set(rng.Intn(64 * words))
		}
		for k := rng.Intn(3); k > 0; k-- {
			s.Set(64*rng.Intn(words) + 63*rng.Intn(2)) // a word's first or last bit
		}
		if rng.Intn(3) == 0 {
			s[words-1] = 0 // a trailing zero word
		}
		got = s.AppendKey(got[:0], -1)
		want = wordKeyRef(want, s)
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: %v: AppendKey %x, reference %x", i, s, got, want)
		}
		drops := append(s.Elements(), -1, rng.Intn(64*words), 64*rng.Intn(words))
		for _, d := range drops {
			got = s.AppendKey(append(got[:0], prefix...), d)
			want = cubeKeyRef(append(want[:0], prefix...), s, d)
			if !bytes.Equal(got, want) {
				t.Fatalf("case %d: %v drop %d: AppendKey %x, reference %x", i, s, d, got, want)
			}
		}
	}
}
