package sop

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// decodeCover reads a wide, sparse cover from fuzz input:
//
//	bytes 0–1   variable count, 300 + value mod 1749 (little endian)
//	byte 2      support size k, 1 + value mod 16
//	next 2k     the k support signals, each a little-endian value mod
//	            the variable count (repeats merge)
//	then        terms, at most 400: a length byte L, then L mod 33
//	            literal bytes, each naming support signal (b>>1) mod k,
//	            positive when b&1 is set
//
// A term that names both literals of a signal is kept, contradictory.
// It returns nil when the input is too short for the header.
func decodeCover(data []byte) *Cover {
	if len(data) < 3 {
		return nil
	}
	n := 300 + int(binary.LittleEndian.Uint16(data))%1749
	k := 1 + int(data[2])%16
	data = data[3:]
	if len(data) < 2*k {
		return nil
	}
	sup := make([]int, k)
	for i := range sup {
		sup[i] = int(binary.LittleEndian.Uint16(data[2*i:])) % n
	}
	data = data[2*k:]
	c := NewCover(n)
	for len(data) > 0 && len(c.Terms) < 400 {
		lits := int(data[0]) % 33
		data = data[1:]
		t := NewTerm(n)
		for ; lits > 0 && len(data) > 0; lits-- {
			v := sup[int(data[0]>>1)%k]
			if data[0]&1 != 0 {
				t.Pos.Set(v)
			} else {
				t.Neg.Set(v)
			}
			data = data[1:]
		}
		c.Add(t)
	}
	return c
}

// encodeCover is decodeCover's inverse for a cover of 300 to 2,048
// variables, at most 16 support signals and at most 400 terms.
func encodeCover(c *Cover) []byte {
	sup := c.Support().Elements()
	idx := make(map[int]int, len(sup))
	out := binary.LittleEndian.AppendUint16(nil, uint16(c.NumVars-300))
	out = append(out, byte(len(sup)-1))
	for i, v := range sup {
		idx[v] = i
		out = binary.LittleEndian.AppendUint16(out, uint16(v))
	}
	for _, t := range c.Terms {
		out = append(out, byte(t.Literals()))
		t.Pos.ForEach(func(v int) { out = append(out, byte(idx[v]<<1|1)) })
		t.Neg.ForEach(func(v int) { out = append(out, byte(idx[v]<<1)) })
	}
	return out
}

// FuzzMinimize checks the complement and the minimizer against their
// references on covers decoded from arbitrary bytes. The seed corpus
// under testdata/fuzz/FuzzMinimize holds large node covers from Table 2
// circuits (t481, sym10) as the SIS-style flow meets them.
func FuzzMinimize(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		f.Add(encodeCover(wideCover(rng)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if c := decodeCover(data); c != nil {
			checkKernels(t, c)
		}
	})
}

// The encoding round-trips the covers the reference test draws.
func TestCoverEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		c := wideCover(rng)
		if c.Support().Count() == 0 {
			continue
		}
		d := decodeCover(encodeCover(c))
		if d == nil || d.NumVars != c.NumVars {
			t.Fatalf("cover %d: decoded %v", i, d)
		}
		if diff := sameTerms(c.NumVars, d.Terms, c.Terms); diff != "" {
			t.Fatalf("cover %d: %s", i, diff)
		}
	}
}
