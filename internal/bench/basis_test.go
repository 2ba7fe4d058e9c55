package bench

// Basis-arbiter acceptance tests over the benchmark table: the
// predictor must be deterministic (same predictions at any worker
// count, run after run), and the race flow, which runs both arms on
// every cone, must never be worse than either pure basis — the
// arbiter's whole contract.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/techmap"
)

// synthBasis runs the paper's flow on one circuit under an explicit
// basis and returns the result.
func synthBasis(t *testing.T, c Circuit, basis core.Basis, workers int) *core.Result {
	t.Helper()
	opt := core.DefaultOptions()
	opt.Basis = basis
	opt.Workers = workers
	res, err := core.Synthesize(context.Background(), c.Build(), opt)
	if err != nil {
		t.Fatalf("%s basis=%s -j%d: %v", c.Name, basis, workers, err)
	}
	return res
}

// The structural predictor (and the whole per-cone arbitration it
// drives) must be deterministic: for every baseline circuit the basis
// choices — prediction, chosen arm, and arm costs — are identical at
// -j1 and -j4 and across two runs at the same worker count.
func TestPredictorDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("all-circuit predictor determinism run skipped in -short mode")
	}
	for _, c := range Circuits() {
		ref := synthBasis(t, c, core.BasisAuto, 1)
		again := synthBasis(t, c, core.BasisAuto, 1)
		par := synthBasis(t, c, core.BasisAuto, 4)
		for _, got := range []struct {
			label string
			res   *core.Result
		}{{"second -j1 run", again}, {"-j4 run", par}} {
			if len(got.res.BasisChoices) != len(ref.BasisChoices) {
				t.Errorf("%s: %s has %d basis choices, first run %d",
					c.Name, got.label, len(got.res.BasisChoices), len(ref.BasisChoices))
				continue
			}
			for i := range ref.BasisChoices {
				if got.res.BasisChoices[i] != ref.BasisChoices[i] {
					t.Errorf("%s: %s basis choice %d differs: %+v vs %+v",
						c.Name, got.label, i, got.res.BasisChoices[i], ref.BasisChoices[i])
				}
			}
		}
	}
}

// The never-worse proof: for every baseline circuit the two-arm race
// flow costs no more than the pure GF(2) flow and no more than the
// pure SOP flow, lexicographically in (pre-map literals,
// mapped gates) — the arbitration order of core's candidate selection.
// The two metrics can genuinely conflict between the pure flows (a
// single-output cone whose SOP form has fewer literals but whose GF(2)
// form maps tighter leaves no network that wins both), so the contract
// is the lexicographic one the arbiter actually optimizes: strictly
// fewer literals always wins, and mapped gates decide literal ties.
func TestBasisRaceNeverWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("all-circuit never-worse run skipped in -short mode")
	}
	lib := techmap.Library()
	mapGates := func(res *core.Result) int {
		m, err := techmap.Map(res.Network, lib)
		if err != nil {
			t.Fatalf("map: %v", err)
		}
		return m.Gates
	}
	for _, c := range Circuits() {
		xor := synthBasis(t, c, core.BasisXor, 0)
		sop := synthBasis(t, c, core.BasisSop, 0)
		race := synthBasis(t, c, core.BasisRace, 0)
		rg := mapGates(race)
		for _, pure := range []struct {
			name string
			res  *core.Result
		}{{"xor", xor}, {"sop", sop}} {
			pl, pg := pure.res.Stats.Lits, mapGates(pure.res)
			if race.Stats.Lits > pl || (race.Stats.Lits == pl && rg > pg) {
				t.Errorf("%s: race (lits %d, map gates %d) worse than %s (lits %d, map gates %d)",
					c.Name, race.Stats.Lits, rg, pure.name, pl, pg)
			}
		}
	}
}
