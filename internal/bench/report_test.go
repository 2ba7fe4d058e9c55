package bench

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

func circuitReports(crs ...CircuitReport) *Report {
	return &Report{Schema: ReportSchema, Circuits: crs}
}

func TestCheckScenarios(t *testing.T) {
	base := CircuitReport{Name: "z4ml", Costs: Costs{OursLits: 40, Degradations: 0, Verified: true}}
	cases := []struct {
		name string
		cur  CircuitReport
		drop bool // drop the circuit from the current report entirely
		kind string
	}{
		{name: "identical", cur: base},
		{name: "improvement passes", cur: CircuitReport{Name: "z4ml", Costs: Costs{OursLits: 35, Verified: true}}},
		{name: "fewer degradations pass", cur: CircuitReport{Name: "z4ml", Costs: Costs{OursLits: 40, Verified: true}}},
		{name: "literal increase", cur: CircuitReport{Name: "z4ml", Costs: Costs{OursLits: 41, Verified: true}}, kind: "literals"},
		{name: "new degradation", cur: CircuitReport{Name: "z4ml", Costs: Costs{OursLits: 40, Degradations: 1, Verified: true}}, kind: "degradations"},
		{name: "verification lost", cur: CircuitReport{Name: "z4ml", Costs: Costs{OursLits: 40, Verified: false}}, kind: "verification"},
		{name: "new error", cur: CircuitReport{Name: "z4ml", Err: "boom", Costs: Costs{OursLits: 40, Verified: true}}, kind: "error"},
		{name: "missing circuit", drop: true, kind: "missing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := circuitReports(tc.cur)
			if tc.drop {
				cur = circuitReports()
			}
			regs := Check(cur, circuitReports(base))
			if tc.kind == "" {
				if len(regs) != 0 {
					t.Fatalf("unexpected regressions: %v", regs)
				}
				return
			}
			if len(regs) != 1 {
				t.Fatalf("regressions = %v, want one %q", regs, tc.kind)
			}
			if regs[0].Kind != tc.kind || regs[0].Circuit != "z4ml" {
				t.Errorf("regression = %+v, want kind %q on z4ml", regs[0], tc.kind)
			}
		})
	}
}

// A degraded baseline tolerates the same degradations in the current
// run: the gate is against the recorded state, not against perfection.
func TestCheckToleratesBaselineDegradations(t *testing.T) {
	base := circuitReports(CircuitReport{Name: "mul4", Costs: Costs{OursLits: 100, Degradations: 2, Verified: true}})
	cur := circuitReports(CircuitReport{Name: "mul4", Costs: Costs{OursLits: 100, Degradations: 2, Verified: true}})
	if regs := Check(cur, base); len(regs) != 0 {
		t.Errorf("same degradation count flagged: %v", regs)
	}
	worse := circuitReports(CircuitReport{Name: "mul4", Costs: Costs{OursLits: 100, Degradations: 3, Verified: true}})
	if regs := Check(worse, base); len(regs) != 1 || regs[0].Kind != "degradations" {
		t.Errorf("extra degradation not flagged: %v", regs)
	}
}

// A circuit only present in the current run (baseline not yet
// refreshed) is not a regression.
func TestCheckIgnoresNewCircuits(t *testing.T) {
	base := circuitReports(CircuitReport{Name: "adr4", Costs: Costs{OursLits: 10, Verified: true}})
	cur := circuitReports(
		CircuitReport{Name: "adr4", Costs: Costs{OursLits: 10, Verified: true}},
		CircuitReport{Name: "brand-new", Costs: Costs{OursLits: 999}},
	)
	if regs := Check(cur, base); len(regs) != 0 {
		t.Errorf("new circuit flagged: %v", regs)
	}
}

func TestReportRoundTripAndSchemaGate(t *testing.T) {
	rep := circuitReports(
		CircuitReport{Name: "b", Costs: Costs{OursLits: 2}},
		CircuitReport{Name: "a", Costs: Costs{OursLits: 1, Verified: true}},
	)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "rep.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, curve, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if curve != nil || len(back.Circuits) != 2 || back.Circuits[0].Name != "b" {
		t.Errorf("round trip lost data: %+v, %+v", back, curve)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"rmbench/v999","circuits":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadBaseline(bad); err == nil {
		t.Error("unknown schema accepted")
	}
}

// BuildReport sorts by name and copies the degradation count out of the
// nested run report so the gate reads it without descending.
func TestBuildReportSortsAndCounts(t *testing.T) {
	rows := []Row{
		{Name: "z4ml", OursLits: 40},
		{Name: "adr4", OursLits: 34},
	}
	rep := BuildReport(rows)
	if rep.Schema != ReportSchema {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.Circuits[0].Name != "adr4" || rep.Circuits[1].Name != "z4ml" {
		t.Errorf("not sorted: %+v", rep.Circuits)
	}
}

// The end-to-end acceptance check for the gate: a deliberately worsened
// flow must trip the literal gate against a default-options baseline of
// the same circuit, and the unchanged flow must pass against its own
// baseline. Two independent worsening knobs are exercised: disabling
// the Section 3 reduction rules and skipping the polarity search.
func TestGateCatchesWorsenedFlow(t *testing.T) {
	cases := []struct {
		name    string
		circuit string
		worsen  func(*Options)
	}{
		{
			name:    "reduction rules disabled",
			circuit: "5xp1",
			worsen:  func(o *Options) { o.Core.Rules = false },
		},
		{
			name:    "polarity search disabled",
			circuit: "bcd-div3",
			worsen:  func(o *Options) { o.Core.Polarity = core.PolarityPositive },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, ok := ByName(tc.circuit)
			if !ok {
				t.Fatalf("%s missing from the circuit table", tc.circuit)
			}
			opt := DefaultOptions()
			opt.Stats = true
			// Pin the pure GF(2) flow: under the default auto basis the
			// arbiter would mask the worsening by keeping the unaffected
			// SOP arm, and this test is about the gate, not the arbiter.
			opt.Core.Basis = core.BasisXor
			good := RunCircuit(context.Background(), c, opt)
			if good.Err != "" {
				t.Fatalf("baseline run failed: %s", good.Err)
			}

			worse := opt
			tc.worsen(&worse)
			bad := RunCircuit(context.Background(), c, worse)
			if bad.Err != "" {
				t.Fatalf("worsened run failed: %s", bad.Err)
			}
			if bad.OursLits <= good.OursLits {
				t.Fatalf("worsened run not worse (%d vs %d); pick a different knob",
					bad.OursLits, good.OursLits)
			}

			regs := Check(BuildReport([]Row{bad}), BuildReport([]Row{good}))
			found := false
			for _, r := range regs {
				if r.Circuit == tc.circuit && r.Kind == "literals" {
					found = true
				}
			}
			if !found {
				t.Errorf("worsened flow not caught: %v", regs)
			}

			// And the unchanged flow passes against its own baseline.
			again := RunCircuit(context.Background(), c, opt)
			if regs := Check(BuildReport([]Row{again}), BuildReport([]Row{good})); len(regs) != 0 {
				t.Errorf("self-check regressed: %v", regs)
			}
		})
	}
}
