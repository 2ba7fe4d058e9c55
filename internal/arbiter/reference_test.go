package arbiter

import (
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/ofdd"
)

// The feature code Compute used to run, kept as its reference: separate
// walks for the node count and the XOR density, and path counts that
// saturate at a private constant through satAddRef.

const hugeCountRef = int64(1) << 40

func satAddRef(a, b int64) int64 {
	if s := a + b; s >= 0 && s < hugeCountRef {
		return s
	}
	return hugeCountRef
}

func coneNodesRef(bm *bdd.Manager, f bdd.Ref) int {
	seen := map[bdd.Ref]bool{}
	var rec func(bdd.Ref)
	rec = func(f bdd.Ref) {
		if bm.IsConst(f) || seen[f] {
			return
		}
		seen[f] = true
		rec(bm.Lo(f))
		rec(bm.Hi(f))
	}
	rec(f)
	return len(seen)
}

func onePathsRef(bm *bdd.Manager, f bdd.Ref) int64 {
	memo := map[bdd.Ref]int64{}
	var rec func(bdd.Ref) int64
	rec = func(f bdd.Ref) int64 {
		if f == bdd.Zero {
			return 0
		}
		if f == bdd.One {
			return 1
		}
		if c, ok := memo[f]; ok {
			return c
		}
		c := satAddRef(rec(bm.Lo(f)), rec(bm.Hi(f)))
		memo[f] = c
		return c
	}
	return rec(f)
}

func ofddPathsRef(om *ofdd.Manager, f ofdd.Ref) int64 {
	memo := map[ofdd.Ref]int64{}
	var rec func(ofdd.Ref) int64
	rec = func(f ofdd.Ref) int64 {
		if f == ofdd.Zero {
			return 0
		}
		if f == ofdd.One {
			return 1
		}
		if c, ok := memo[f]; ok {
			return c
		}
		c := satAddRef(rec(om.Lo(f)), rec(om.Hi(f)))
		memo[f] = c
		return c
	}
	return rec(f)
}

func xorDensityRef(bm *bdd.Manager, f bdd.Ref, nodes int) float64 {
	if nodes == 0 {
		return 0
	}
	comp := newCompMemo(bm)
	xor, inner := 0, 0
	seen := map[bdd.Ref]bool{}
	var rec func(bdd.Ref)
	rec = func(f bdd.Ref) {
		if bm.IsConst(f) || seen[f] {
			return
		}
		seen[f] = true
		lo, hi := bm.Lo(f), bm.Hi(f)
		if !bm.IsConst(lo) || !bm.IsConst(hi) {
			inner++
			if comp.complements(lo, hi) {
				xor++
			}
		}
		rec(lo)
		rec(hi)
	}
	rec(f)
	if inner == 0 {
		return 0
	}
	return float64(xor) / float64(inner)
}

func computeRef(bm *bdd.Manager, f bdd.Ref) Features {
	var ft Features
	ft.Support = bm.Support(f).Count()
	ft.Nodes = coneNodesRef(bm, f)
	ft.XorDensity = xorDensityRef(bm, f, ft.Nodes)
	ft.SOPPaths = onePathsRef(bm, f)
	om := ofdd.New(bm.NumVars(), nil)
	if r, ok := om.FromBDDBounded(bm, f, ofddNodeBound); ok {
		ft.PPRMCubes = ofddPathsRef(om, r)
	} else {
		ft.PPRMCubes = -1
	}
	return ft
}

// randomCone returns a random function of n variables: either a random
// truth table (dense, mixed structure) or a random chain of AND, OR, XOR
// and NOT steps over literals and earlier steps (sparser, often XOR- or
// AND/OR-dominated).
func randomCone(rng *rand.Rand, m *bdd.Manager, n int) bdd.Ref {
	if rng.Intn(2) == 0 {
		var table func(v int) bdd.Ref
		table = func(v int) bdd.Ref {
			if v == n {
				return []bdd.Ref{bdd.Zero, bdd.One}[rng.Intn(2)]
			}
			return m.ITE(m.Var(v), table(v+1), table(v+1))
		}
		return table(0)
	}
	pool := []bdd.Ref{bdd.Zero, bdd.One}
	for v := 0; v < n; v++ {
		pool = append(pool, m.Var(v))
	}
	for k := 3 * n; k > 0; k-- {
		a, b := pool[len(pool)/2+rng.Intn(len(pool)-len(pool)/2)], pool[rng.Intn(len(pool))]
		var r bdd.Ref
		switch rng.Intn(4) {
		case 0:
			r = m.And(a, b)
		case 1:
			r = m.Or(a, b)
		case 2:
			r = m.Xor(a, b)
		default:
			r = m.Not(a)
		}
		pool = append(pool, r)
	}
	return pool[len(pool)-1]
}

// TestComputeMatchesReference requires Compute's features to equal the
// reference's on random cones, and on wide ORs and parities whose PPRM
// cube or BDD path counts sit on both sides of the 2⁴⁰ saturation point
// (OR-n has 2ⁿ−1 PPRM cubes, parity-n has 2ⁿ⁻¹ BDD paths).
func TestComputeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mixed := 0
	for i := 0; i < 400; i++ {
		n := 1 + rng.Intn(10)
		m := bdd.New(n)
		f := randomCone(rng, m, n)
		got, want := Compute(m, f), computeRef(m, f)
		if got != want {
			t.Fatalf("random cone %d (%d vars): Compute %+v, reference %+v", i, n, got, want)
		}
		if got.XorDensity > 0 && got.XorDensity < 1 {
			mixed++
		}
	}
	if mixed < 100 {
		t.Errorf("only %d of 400 random cones mix XOR and AND/OR nodes", mixed)
	}
	for _, n := range []int{39, 40, 41, 42, 63, 64, 65} {
		m := bdd.New(n)
		or := bdd.Zero
		for v := 0; v < n; v++ {
			or = m.Or(or, m.Var(v))
		}
		for name, f := range map[string]bdd.Ref{"or": or, "parity": parity(m, n)} {
			if got, want := Compute(m, f), computeRef(m, f); got != want {
				t.Errorf("%s-%d: Compute %+v, reference %+v", name, n, got, want)
			}
		}
	}
}
