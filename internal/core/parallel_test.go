package core_test

// Parallel-determinism tests: the per-output derivation fan-out must
// produce bit-identical results for every worker count. External test
// package so the multi-output specifications can come from the bench
// circuit table (bench imports core).

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

// blifOf renders a synthesized network to BLIF — a stable byte-level
// fingerprint of its exact structure.
func blifOf(t *testing.T, res *core.Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Network.WriteBLIF(&buf); err != nil {
		t.Fatalf("WriteBLIF: %v", err)
	}
	return buf.String()
}

func runAt(t *testing.T, name string, opt core.Options, workers int) *core.Result {
	t.Helper()
	c, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("unknown bench circuit %q", name)
	}
	opt.Workers = workers
	res, err := core.Synthesize(context.Background(), c.Build(), opt)
	if err != nil {
		t.Fatalf("%s at -j%d: %v", name, workers, err)
	}
	return res
}

func assertIdentical(t *testing.T, name string, ref, got *core.Result, workers int) {
	t.Helper()
	if w, g := blifOf(t, ref), blifOf(t, got); w != g {
		t.Errorf("%s: network at -j%d differs from -j1", name, workers)
	}
	if len(ref.CubeCounts) != len(got.CubeCounts) {
		t.Fatalf("%s: cube-count length mismatch at -j%d", name, workers)
	}
	for i := range ref.CubeCounts {
		if ref.CubeCounts[i] != got.CubeCounts[i] {
			t.Errorf("%s output %d: cube count %d at -j%d, %d at -j1",
				name, i, got.CubeCounts[i], workers, ref.CubeCounts[i])
		}
	}
	if len(ref.Degradations) != len(got.Degradations) {
		t.Fatalf("%s: degradation list length differs at -j%d: %v vs %v",
			name, workers, ref.Degradations, got.Degradations)
	}
	for i := range ref.Degradations {
		if ref.Degradations[i] != got.Degradations[i] {
			t.Errorf("%s: degradation %d differs at -j%d: %+v vs %+v",
				name, i, workers, got.Degradations[i], ref.Degradations[i])
		}
	}
	if ref.Stats != got.Stats {
		t.Errorf("%s: stats differ at -j%d: %+v vs %+v", name, workers, got.Stats, ref.Stats)
	}
	if len(ref.BasisChoices) != len(got.BasisChoices) {
		t.Fatalf("%s: basis-choice list length differs at -j%d: %v vs %v",
			name, workers, got.BasisChoices, ref.BasisChoices)
	}
	for i := range ref.BasisChoices {
		if ref.BasisChoices[i] != got.BasisChoices[i] {
			t.Errorf("%s: basis choice %d differs at -j%d: %+v vs %+v",
				name, i, workers, got.BasisChoices[i], ref.BasisChoices[i])
		}
	}
}

// The multi-output Table 2 circuits must synthesize to bit-identical
// networks, cube counts, and degradation lists at -j1 and -jN. CI runs
// this under -race at GOMAXPROCS 1 and 4 (serialized and saturated).
func TestSynthesizeParallelDeterminism(t *testing.T) {
	for _, name := range []string{"adr4", "addm4", "5xp1", "bcd-div3"} {
		ref := runAt(t, name, core.DefaultOptions(), 1)
		for _, workers := range []int{2, 4, 8} {
			got := runAt(t, name, core.DefaultOptions(), workers)
			assertIdentical(t, name, ref, got, workers)
		}
	}
}

// Same property with the exhaustive polarity search: on a
// single-output circuit only one derivation runs, whatever the worker
// count, and on a multi-output one the outputs spread over the pool.
func TestSynthesizeParallelDeterminismExhaustive(t *testing.T) {
	opt := core.DefaultOptions()
	opt.Polarity = core.PolarityExhaustive
	for _, name := range []string{"9sym", "bcd-div3", "adr4"} {
		ref := runAt(t, name, opt, 1)
		for _, workers := range []int{3, 4} {
			got := runAt(t, name, opt, workers)
			assertIdentical(t, name, ref, got, workers)
		}
	}
}
