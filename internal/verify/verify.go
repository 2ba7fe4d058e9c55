// Package verify provides combinational equivalence checking between gate
// networks — the role SIS's `verify` command plays in the paper's
// methodology (every synthesized circuit is checked against the original).
package verify

import (
	"fmt"
	"math/rand"

	"repro/internal/bdd"
	"repro/internal/network"
)

// precheck rejects interface-mismatched networks before any PI- or
// PO-indexed work: every checker in this package walks PI-sized slices
// and b.POs by a's indices, so a mismatch must be an error up front,
// never an index-out-of-range panic mid-check.
func precheck(a, b *network.Network) error {
	if a.NumPIs() != b.NumPIs() {
		return fmt.Errorf("verify: PI counts differ (%d vs %d)", a.NumPIs(), b.NumPIs())
	}
	if a.NumPOs() != b.NumPOs() {
		return fmt.Errorf("verify: PO counts differ (%d vs %d)", a.NumPOs(), b.NumPOs())
	}
	return nil
}

// Equivalent reports whether the two networks compute identical functions
// output-for-output (matched by position), using canonical BDDs.
func Equivalent(a, b *network.Network) (bool, error) {
	if err := precheck(a, b); err != nil {
		return false, err
	}
	m := bdd.New(a.NumPIs())
	fa := a.ToBDDs(m)
	fb := b.ToBDDs(m)
	for i := range fa {
		if fa[i] != fb[i] {
			return false, nil
		}
	}
	return true, nil
}

// RandomCheck simulates both networks on n random vectors and reports the
// first mismatching output index, or -1. A quick smoke test for very wide
// circuits where BDDs might blow up.
func RandomCheck(a, b *network.Network, n int, seed int64) (int, error) {
	if err := precheck(a, b); err != nil {
		return -1, err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i += 64 {
		words := make([]uint64, a.NumPIs())
		for v := range words {
			words[v] = rng.Uint64()
		}
		va := a.Simulate(words)
		vb := b.Simulate(words)
		for o := range a.POs {
			if va[a.POs[o].Gate] != vb[b.POs[o].Gate] {
				return o, nil
			}
		}
	}
	return -1, nil
}

// simExhaustiveInputs is the input count up to which Simulate checks
// every input pattern (65,536 patterns, 1,024 simulation words).
const simExhaustiveInputs = 16

// Simulate checks equivalence by simulation alone, never building a BDD:
// every input pattern up to 16 inputs, otherwise vectors fixed-seed
// random vectors. It is the check for results whose BDD route is
// unaffordable or untrusted; the caller picks vectors per its cost
// budget.
func Simulate(a, b *network.Network, vectors int) (bool, error) {
	if a.NumPIs() <= simExhaustiveInputs {
		return Exhaustive(a, b)
	}
	bad, err := RandomCheck(a, b, vectors, 1)
	return err == nil && bad < 0, err
}

// Exhaustive checks all 2^n input patterns (n ≤ 20). It returns an error
// rather than simulating past the input-count limit.
func Exhaustive(a, b *network.Network) (bool, error) {
	if err := precheck(a, b); err != nil {
		return false, err
	}
	n := a.NumPIs()
	if n > 20 {
		return false, fmt.Errorf("verify: Exhaustive limited to 20 inputs, got %d", n)
	}
	for base := 0; base < 1<<uint(n); base += 64 {
		words := make([]uint64, n)
		for j := 0; j < 64 && base+j < 1<<uint(n); j++ {
			m := base + j
			for v := 0; v < n; v++ {
				if m&(1<<v) != 0 {
					words[v] |= 1 << uint(j)
				}
			}
		}
		va := a.Simulate(words)
		vb := b.Simulate(words)
		rem := 1<<uint(n) - base
		mask := ^uint64(0)
		if rem < 64 {
			mask = 1<<uint(rem) - 1
		}
		for o := range a.POs {
			if (va[a.POs[o].Gate]^vb[b.POs[o].Gate])&mask != 0 {
				return false, nil
			}
		}
	}
	return true, nil
}
