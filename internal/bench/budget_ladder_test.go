package bench

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/verify"
)

// TestBudgetLadder forces each resource budget to trip on a real
// benchmark and checks the contract of the degradation ladder: Synthesize
// still succeeds, the result is verified equivalent to the specification,
// and the named fallback appears in the report.
func TestBudgetLadder(t *testing.T) {
	cases := []struct {
		name    string
		circuit string
		setup   func(*core.Options) (ctx context.Context, cancel context.CancelFunc)
		// wantStage must appear among the fired degradations' stages.
		wantStage string
	}{
		{
			name:    "deadline",
			circuit: "mlp4",
			setup: func(o *core.Options) (context.Context, context.CancelFunc) {
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				// Make the trip deterministic: the deadline has passed
				// before synthesis begins, so the earliest poll fires.
				time.Sleep(2 * time.Millisecond)
				return ctx, cancel
			},
			wantStage: "spec-bdd",
		},
		{
			name:    "bdd-nodes",
			circuit: "add6",
			setup: func(o *core.Options) (context.Context, context.CancelFunc) {
				o.MaxBDDNodes = 16
				return context.Background(), func() {}
			},
			wantStage: "spec-bdd",
		},
		{
			name:    "ofdd-nodes",
			circuit: "mlp4",
			setup: func(o *core.Options) (context.Context, context.CancelFunc) {
				// Under auto a tripped GF(2) arm of a hedged cone falls to
				// its SOP sibling; on the pure GF(2) flow the trip reads
				// fprm → spec-cone.
				o.Basis = core.BasisXor
				o.MaxOFDDNodes = 8
				return context.Background(), func() {}
			},
			wantStage: "fprm",
		},
		{
			name:    "steps",
			circuit: "add6",
			setup: func(o *core.Options) (context.Context, context.CancelFunc) {
				o.MaxSteps = 64
				return context.Background(), func() {}
			},
			wantStage: "", // any rung is acceptable; which one trips first is incidental
		},
		{
			name:    "cubes",
			circuit: "mlp4",
			setup: func(o *core.Options) (context.Context, context.CancelFunc) {
				o.MaxCubes = 4
				return context.Background(), func() {}
			},
			wantStage: "cube-method",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, ok := ByName(tc.circuit)
			if !ok {
				t.Fatalf("unknown circuit %s", tc.circuit)
			}
			spec := c.Build()
			opt := core.DefaultOptions()
			ctx, cancel := tc.setup(&opt)
			defer cancel()

			res, err := core.Synthesize(ctx, spec, opt)
			if err != nil {
				t.Fatalf("Synthesize must degrade, not fail: %v", err)
			}
			if len(res.Degradations) == 0 {
				t.Fatalf("budget %s never tripped: empty fallback report", tc.name)
			}
			if tc.wantStage != "" {
				found := false
				for _, d := range res.Degradations {
					if d.Stage == tc.wantStage {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("no %q degradation fired; report:\n%s", tc.wantStage, res.FallbackReport())
				}
			}
			report := res.FallbackReport()
			if strings.TrimSpace(report) == "" {
				t.Error("FallbackReport is empty despite degradations")
			}
			eq, verr := verify.Equivalent(spec, res.Network)
			if verr != nil {
				t.Fatalf("verification did not run: %v", verr)
			}
			if !eq {
				t.Fatalf("degraded result is NOT equivalent; report:\n%s", report)
			}
		})
	}
}
