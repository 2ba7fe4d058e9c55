package atpg_test

import (
	"context"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/redund"
)

// TestPaperTestabilityClaims pins the paper's testability claims (§1,
// §6) on the circuits EXPERIMENTS.md reports: at DefaultOptions the
// synthesized network has no PODEM-untestable single stuck-at fault,
// and the synthesis-time pattern set (AZ, AO, OC, SA1 and the support
// unions) alone detects every collapsed fault, with no test generation.
func TestPaperTestabilityClaims(t *testing.T) {
	for _, name := range []string{"cm82a", "z4ml", "rd53", "rd73", "9sym", "t481"} {
		c, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("unknown circuit %s", name)
		}
		res, err := core.Synthesize(context.Background(), c.Build(), core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gen := atpg.Generate(res.Network, 20000)
		if len(gen.Untestable) != 0 || len(gen.Aborted) != 0 {
			t.Errorf("%s: %d untestable, %d aborted of %d faults; want an irredundant network",
				name, len(gen.Untestable), len(gen.Aborted), gen.Total)
		}
		cov := atpg.MeasureCoverage(res.Network, redund.BuildPatterns(res.Forms, 4096, 1024))
		if cov.Total == 0 || cov.Detected != cov.Total {
			t.Errorf("%s: the paper's pattern set detects %d of %d faults, want all", name, cov.Detected, cov.Total)
		}
	}
}
