package bench

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/network"
	"repro/internal/power"
	"repro/internal/sisbase"
	"repro/internal/techmap"
	"repro/internal/verify"
)

// TestQuickFullPipeline drives random multi-output specifications through
// the complete stack — both synthesis flows, equivalence checking,
// technology mapping, power estimation, and a fault-simulation
// sanity pass — asserting the invariants that must hold across any
// composition of the subsystems.
func TestQuickFullPipeline(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nPI := 3 + rng.Intn(4)
		spec := network.New("p")
		for i := 0; i < nPI; i++ {
			spec.AddPI("")
		}
		types := []network.GateType{network.And, network.Or, network.Xor, network.Not, network.Nand, network.Nor, network.Xnor}
		for i := 0; i < 5+rng.Intn(15); i++ {
			ty := types[rng.Intn(len(types))]
			k := 2
			if ty == network.Not {
				k = 1
			}
			fanins := make([]int, k)
			for j := range fanins {
				fanins[j] = rng.Intn(len(spec.Gates))
			}
			spec.AddGate(ty, fanins...)
		}
		spec.AddPO("o1", len(spec.Gates)-1)
		spec.AddPO("o2", rng.Intn(len(spec.Gates)))
		spec.Sweep()

		ours, err := core.Synthesize(context.Background(), spec, core.DefaultOptions())
		if err != nil {
			return false
		}
		base, err := sisbase.Run(context.Background(), spec, sisbase.DefaultOptions())
		if err != nil {
			return false
		}
		for _, net := range []*network.Network{ours.Network, base.Network} {
			if eq, err := verify.Equivalent(spec, net); err != nil || !eq {
				return false
			}
			m, err := techmap.Map(net, techmap.Library())
			if err != nil {
				return false
			}
			// Power must be finite and non-negative.
			if p := power.EstimateMapped(m); p.Total < 0 {
				return false
			}
			// A handful of ATPG tests must actually detect their faults.
			faults := atpg.Faults(net)
			for trial := 0; trial < 3 && trial < len(faults); trial++ {
				fa := faults[rng.Intn(len(faults))]
				pattern, status := atpg.GenerateTest(net, fa, 2000)
				if status == atpg.Detected {
					det := atpg.FaultSimulate(net, []atpg.Fault{fa}, []cube.BitSet{pattern})
					if !det[0] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
