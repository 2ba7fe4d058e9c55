package chaos

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/obs"
)

// ladderRun synthesizes one bench circuit under an injection plan at
// one worker (the deterministic schedule every rung assertion needs).
func ladderRun(t *testing.T, circuit string, p Plan, mutate func(*core.Options)) (*core.Result, error) {
	t.Helper()
	c, ok := bench.ByName(circuit)
	if !ok {
		t.Fatalf("unknown bench circuit %q", circuit)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := core.DefaultOptions()
	opt.Workers = 1
	// The ladder tests assert the GF(2) ladder unless the plan names a
	// basis explicitly.
	opt.Basis = core.BasisXor
	if p.Basis != "" {
		b, err := core.ParseBasis(p.Basis)
		if err != nil {
			t.Fatalf("plan basis: %v", err)
		}
		opt.Basis = b
	}
	if p.UseOFDDMethod {
		opt.Method = core.MethodOFDD
	}
	opt.Hooks = p.Hooks(cancel)
	if mutate != nil {
		mutate(&opt)
	}
	return core.Synthesize(ctx, c.Build(), opt)
}

func hasRung(res *core.Result, stage, fallback string) bool {
	for _, d := range res.Degradations {
		if d.Stage == stage && d.Fallback == fallback {
			return true
		}
	}
	return false
}

// TestLadderRungs drives every rung of the degradation ladder through
// a chaos plan (or, for the budget-steered cube→OFDD rung, the budget
// option that steers it) and asserts the recorded (stage, fallback)
// transitions. A per-phase cap trip on the derivation or the factoring
// path falls straight to the spec-cone copy: nothing retries it. On a
// two-arm cone the same trip falls to the SOP arm instead. Rows run at
// their plan's basis (the pure GF(2) flow when it names none); rows
// marked auto run again at the default basis, where the rung must hold
// just the same.
func TestLadderRungs(t *testing.T) {
	cases := []struct {
		name    string
		circuit string
		plan    Plan
		mutate  func(*core.Options)
		want    [][2]string // (stage, fallback) pairs that must appear
		absent  [][2]string // pairs that must not appear
		marked  bool        // every wanted rung's reason names the injected fault
		auto    bool        // also run at basis auto
	}{
		{
			name: "spec-bdd to swept-spec", circuit: "f2",
			auto: true,
			plan: Plan{FailBDDAlloc: 1},
			want: [][2]string{{"spec-bdd", "swept-spec"}},
		},
		{
			name: "derivation trip → spec-cone", circuit: "adr4",
			auto: true,
			plan: Plan{FailOFDDAlloc: 1, OFDDOutput: 0},
			want: [][2]string{{"fprm", "spec-cone"}},
			absent: [][2]string{
				{"fprm", "retry"},
				{"retry", "spec-cone"},
			},
		},
		{
			name: "factor trip → spec-cone", circuit: "adr4",
			auto: true,
			plan: Plan{FailFactorAlloc: 1, UseOFDDMethod: true},
			want: [][2]string{{"factor", "spec-cone"}},
			absent: [][2]string{
				{"factor", "retry"},
				{"retry", "spec-cone"},
			},
		},
		{
			// Every cone has both arms at basis race: the trip is the
			// GF(2) arm's contained failure, not a spec-cone rung.
			name: "factor trip on a two-arm cone → sop-arm", circuit: "adr4",
			plan:   Plan{FailFactorAlloc: 1, UseOFDDMethod: true, Basis: "race"},
			want:   [][2]string{{"xor-arm", "sop-arm"}},
			absent: [][2]string{{"factor", "spec-cone"}},
			marked: true,
		},
		{
			name: "cancellation drains the tail of the ladder", circuit: "f2",
			plan: Plan{CancelAtPhase: "redund"},
			want: [][2]string{
				{"redund", "skipped"},
				{"merge", "skipped"},
				{"do-no-harm", "swept-spec"},
			},
		},
		{
			name: "cube budget steers to the OFDD method", circuit: "mlp4",
			auto:   true,
			plan:   Plan{},
			mutate: func(o *core.Options) { o.MaxCubes = 4 },
			want:   [][2]string{{"cube-method", "ofdd-method"}},
		},
	}
	for _, tc := range cases {
		bases := []string{tc.plan.Basis}
		if tc.auto {
			bases = append(bases, "auto")
		}
		for _, basis := range bases {
			name := tc.name
			if basis != "" {
				name += "@" + basis
			}
			t.Run(name, func(t *testing.T) {
				p := tc.plan
				p.Basis = basis
				res, err := ladderRun(t, tc.circuit, p, tc.mutate)
				if err != nil {
					t.Fatalf("Synthesize: %v", err)
				}
				for _, w := range tc.want {
					if !hasRung(res, w[0], w[1]) {
						t.Errorf("missing rung %s -> %s in:\n%s", w[0], w[1], res.FallbackReport())
					}
					for _, d := range res.Degradations {
						if tc.marked && d.Stage == w[0] && d.Fallback == w[1] && !strings.Contains(d.Reason, Marker) {
							t.Errorf("rung %s -> %s of %s does not name the injected fault: %q", w[0], w[1], d.Output, d.Reason)
						}
					}
				}
				for _, a := range tc.absent {
					if hasRung(res, a[0], a[1]) {
						t.Errorf("unexpected rung %s -> %s in:\n%s", a[0], a[1], res.FallbackReport())
					}
				}
			})
		}
	}
}

// TestSweptSpecRungFinalizes asserts the bottom rung leaves through the
// same exit as a full run: the swept specification reports the basis
// it ran under, the budget's counters, the spec-bdd phase time, and the
// observability snapshot.
func TestSweptSpecRungFinalizes(t *testing.T) {
	for _, basis := range []string{"xor", "auto"} {
		res, err := ladderRun(t, "f2", Plan{FailBDDAlloc: 1, Basis: basis},
			func(o *core.Options) { o.Obs = obs.NewCollector() })
		if err != nil {
			t.Fatalf("%s: %v", basis, err)
		}
		if !res.Fallback || !hasRung(res, "spec-bdd", "swept-spec") {
			t.Fatalf("%s: no swept-spec rung:\n%s", basis, res.FallbackReport())
		}
		if res.Basis != basis {
			t.Errorf("%s: swept spec reports basis %q", basis, res.Basis)
		}
		if res.BudgetPolls == 0 {
			t.Errorf("%s: swept spec reports no budget polls", basis)
		}
		if res.ObsStats == nil {
			t.Errorf("%s: swept spec carries no obs snapshot", basis)
		}
		if len(res.PhaseTimes) != 1 || res.PhaseTimes[0].Name != "spec-bdd" {
			t.Errorf("%s: swept spec phases %+v, want the spec-bdd phase alone", basis, res.PhaseTimes)
		}
	}
}

// countPolls runs an uninjected synthesis with a counting poll probe,
// returning how many graceful budget polls the run makes — the scan
// range for the poll-keyed rung tests below.
func countPolls(t *testing.T, circuit string) int64 {
	t.Helper()
	var polls atomic.Int64
	c, _ := bench.ByName(circuit)
	opt := core.DefaultOptions()
	opt.Workers = 1
	opt.Basis = core.BasisXor // match ladderRun's pinned GF(2) flow
	opt.Hooks = &core.ProbeHooks{BudgetPoll: func(poll int64) *budget.Err {
		polls.Store(poll)
		return nil
	}}
	if _, err := core.Synthesize(context.Background(), c.Build(), opt); err != nil {
		t.Fatalf("counting run: %v", err)
	}
	return polls.Load()
}

// TestBestSoFarRungReachable proves the polarity-search rung is
// chaos-reachable: some injected poll trip lands mid-search and makes
// the run keep the best polarity found so far. The search only ever
// polls (it never takes counted steps), which is exactly what the poll
// probe exists for.
func TestBestSoFarRungReachable(t *testing.T) {
	total := countPolls(t, "9sym")
	if total < 2 {
		t.Fatalf("9sym run made only %d polls", total)
	}
	for m := int64(1); m <= total; m++ {
		res, err := ladderRun(t, "9sym", Plan{TripAtPoll: m}, nil)
		if err != nil {
			t.Fatalf("TripAtPoll=%d: %v", m, err)
		}
		if hasRung(res, "polarity-search", "best-so-far") {
			return
		}
	}
	t.Fatalf("no injected poll trip in 1..%d reached the best-so-far rung", total)
}

// TestRedundPartialRungReachable proves the partially-run redundancy
// pass is reported: some injected poll trip lands between redund
// passes, and the run must record redund -> partial with the injected
// (marked) reason rather than staying silent about the weaker pass.
func TestRedundPartialRungReachable(t *testing.T) {
	total := countPolls(t, "f2")
	for m := int64(1); m <= total; m++ {
		res, err := ladderRun(t, "f2", Plan{TripAtPoll: m}, nil)
		if err != nil {
			t.Fatalf("TripAtPoll=%d: %v", m, err)
		}
		for _, d := range res.Degradations {
			if d.Stage == "redund" && d.Fallback == "partial" {
				if !strings.Contains(d.Reason, Marker) {
					t.Fatalf("partial redund pass not attributed to the injected trip: %+v", d)
				}
				return
			}
		}
	}
	t.Fatalf("no injected poll trip in 1..%d reached the redund partial rung", total)
}

// TestFallbackReport asserts the report renders exactly one accurate
// line per degradation, and stays empty for a clean run.
func TestFallbackReport(t *testing.T) {
	res, err := ladderRun(t, "adr4", Plan{FailOFDDAlloc: 1, OFDDOutput: 0}, nil)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if len(res.Degradations) == 0 {
		t.Fatal("injection produced no degradations")
	}
	report := res.FallbackReport()
	lines := strings.Split(strings.TrimRight(report, "\n"), "\n")
	if len(lines) != len(res.Degradations) {
		t.Fatalf("report has %d lines for %d degradations:\n%s", len(lines), len(res.Degradations), report)
	}
	for i, d := range res.Degradations {
		for _, part := range []string{d.Output, d.Stage, d.Fallback, d.Reason} {
			if !strings.Contains(lines[i], part) {
				t.Errorf("report line %d %q misses %q", i, lines[i], part)
			}
		}
	}

	clean, err := ladderRun(t, "f2", Plan{}, nil)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if len(clean.Degradations) != 0 || clean.FallbackReport() != "" {
		t.Fatalf("clean run reported degradations: %q", clean.FallbackReport())
	}
}
