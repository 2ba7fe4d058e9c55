package core_test

// End-to-end observability tests: stats collection through the whole
// pipeline, independence of the report from the worker count and from a
// deadline that does not expire, and the golden rmstats/v1 schema.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/redund"
)

var update = flag.Bool("update", false, "rewrite golden files")

// A run with a collector attached must populate every metric family the
// pipeline claims to instrument.
func TestObsStatsCollected(t *testing.T) {
	opt := core.DefaultOptions()
	opt.Obs = obs.NewCollector()
	res := runAt(t, "adr4", opt, 2)

	if res.ObsStats == nil {
		t.Fatal("ObsStats nil with a collector attached")
	}
	s := res.ObsStats
	if s.BDD.UniqueMisses == 0 || s.BDD.OpMisses == 0 {
		t.Errorf("BDD counters empty: %+v", s.BDD)
	}
	if s.OFDD.UniqueMisses == 0 {
		t.Errorf("OFDD counters empty: %+v", s.OFDD)
	}
	if s.Factor.Passes == 0 {
		t.Errorf("factor passes = 0 with rules enabled: %+v", s.Factor)
	}
	pos := len(res.Network.POs)
	if len(s.Outputs) != pos {
		t.Fatalf("search groups = %d, want one per output (%d)", len(s.Outputs), pos)
	}
	anyBest := false
	for i, o := range s.Outputs {
		if o.Candidates == 0 {
			t.Errorf("output %d evaluated no polarity candidates", i)
		}
		if o.BestCubes > 0 {
			anyBest = true
			if o.BestCubes != res.CubeCounts[i] {
				t.Errorf("output %d best cubes = %d, cube count = %d",
					i, o.BestCubes, res.CubeCounts[i])
			}
		}
	}
	if !anyBest {
		t.Error("no output recorded a best form")
	}
	if res.BudgetSteps == 0 {
		t.Error("budget steps = 0")
	}

	// Per-output spans: one per output, correctly attributed.
	if len(res.OutputTimes) != pos {
		t.Fatalf("output spans = %d, want %d", len(res.OutputTimes), pos)
	}
	for i, span := range res.OutputTimes {
		if span.Index != i {
			t.Errorf("span %d has index %d", i, span.Index)
		}
		if span.Output != res.Network.POs[i].Name {
			t.Errorf("span %d names %q, PO is %q", i, span.Output, res.Network.POs[i].Name)
		}
		if span.Worker < 0 || span.Worker >= 2 {
			t.Errorf("span %d attributed to worker %d of 2", i, span.Worker)
		}
	}
}

// A run without a collector must not grow a report.
func TestObsStatsAbsentWhenDisabled(t *testing.T) {
	res := runAt(t, "adr4", core.DefaultOptions(), 2)
	if res.ObsStats != nil {
		t.Errorf("ObsStats = %+v without a collector", res.ObsStats)
	}
}

// The acceptance criterion for the stats report: after StripVolatile,
// the serialized RunStats is bit-identical at -j1 and -j4 — every
// counter, cube count, span name/index, and budget figure is
// schedule-independent; only wall-clock fields and worker attribution
// may differ.
func TestRunStatsDeterministicAcrossWorkers(t *testing.T) {
	for _, name := range []string{"adr4", "bcd-div3"} {
		stats := func(workers int) []byte {
			opt := core.DefaultOptions()
			opt.Obs = obs.NewCollector()
			res := runAt(t, name, opt, workers)
			b, err := json.Marshal(res.RunStats(name).StripVolatile())
			if err != nil {
				t.Fatalf("%s: marshal: %v", name, err)
			}
			return b
		}
		ref := stats(1)
		if got := stats(4); !bytes.Equal(ref, got) {
			t.Errorf("%s: stripped RunStats differ between -j1 and -j4:\n-j1: %s\n-j4: %s",
				name, ref, got)
		}
	}
}

// Every polarity-search counter of the exhaustive Gray-code walk —
// candidates, improvements, best cubes and literals — is identical at
// any worker count.
func TestRunStatsDeterministicExhaustive(t *testing.T) {
	opt := core.DefaultOptions()
	opt.Polarity = core.PolarityExhaustive
	obsAt := func(workers int) *obs.Stats {
		o := opt
		o.Obs = obs.NewCollector()
		return runAt(t, "9sym", o, workers).ObsStats
	}
	ref, got := obsAt(1), obsAt(4)
	if !slices.Equal(ref.Outputs, got.Outputs) {
		t.Errorf("search stats differ:\n-j1: %+v\n-j4: %+v", ref.Outputs, got.Outputs)
	}
}

// Golden schema test: a fully-populated RunStats must serialize exactly
// as testdata/runstats_golden.json. A failure means the rmstats/v1
// wire format changed — bump StatsSchema and regenerate deliberately
// with go test ./internal/core -run Golden -update.
// TestStripVolatileLeavesResult: the report owns copies of the result's
// slices, so stripping it leaves the Result's times intact.
func TestStripVolatileLeavesResult(t *testing.T) {
	res := &core.Result{
		PhaseTimes:  []core.PhaseTime{{Name: "fprm", Elapsed: 5}},
		OutputTimes: []core.OutputSpan{{Output: "o", Worker: 1, Elapsed: 7}},
	}
	res.RunStats("x").StripVolatile()
	if res.PhaseTimes[0].Elapsed != 5 || res.OutputTimes[0].Worker != 1 || res.OutputTimes[0].Elapsed != 7 {
		t.Errorf("StripVolatile wrote through to the Result: %+v %+v", res.PhaseTimes, res.OutputTimes)
	}
}

func TestRunStatsGoldenSchema(t *testing.T) {
	rs := &core.RunStats{
		Schema:     core.StatsSchema,
		Circuit:    "example",
		PIs:        7,
		POs:        2,
		Workers:    4,
		Gates2:     31,
		Literals:   62,
		XORs:       5,
		GatesTotal: 36,
		CubeCounts: []int64{9, 17},
		Fallback:   true,
		Degradations: []core.Degradation{{
			Output: "s1", Stage: "fprm", Fallback: "greedy", Reason: "node budget",
		}},
		Redund: redund.Result{
			XorToOr: 1, XorToAnd: 2, FaninsRemoved: 3, ConstFolded: 4,
			Patterns: 5, Candidates: 6, Reverted: 7, Passes: 2, BudgetCut: true,
		},
		Budget: core.BudgetStat{Steps: 4256, Polls: 102},
		Obs: &obs.Stats{
			BDD:    obs.DDStats{UniqueHits: 1, UniqueMisses: 2, OpHits: 3, OpMisses: 4, Rehashes: 1, PeakNodes: 6, UniqueHitRate: 1.0 / 3.0, OpHitRate: 3.0 / 7.0},
			OFDD:   obs.DDStats{UniqueMisses: 8, PeakNodes: 8},
			Factor: obs.FactorStats{RuleA: 1, RuleB: 2, RuleC: 3, RuleD: 4, RuleE: 5, Passes: 6, DivisorHits: 7},
			Outputs: []obs.SearchStats{
				{Candidates: 8, Improvements: 2, BestCubes: 9, BestLits: 21},
				{Candidates: 8, Improvements: 1, BestCubes: 17, BestLits: 40},
			},
		},
		Phases: []core.PhaseTime{
			{Name: "bdd", Elapsed: 1000},
			{Name: "fprm", Elapsed: 2000},
		},
		Outputs: []core.OutputSpan{
			{Output: "s0", Index: 0, Worker: 1, Elapsed: 900},
			{Output: "s1", Index: 1, Worker: 0, Elapsed: 1100},
		},
		ElapsedNS: int64(3 * time.Millisecond),
	}
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "runstats_golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("rmstats/v1 serialization drifted from golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// A wall-clock deadline that does not expire must not change the result:
// the arms of a two-arm cone both run to completion whether or not the
// run has a deadline, at any worker count. The three circuits each have
// cones the predictor sends to both arms.
func TestDeadlineMatchesNoDeadline(t *testing.T) {
	for _, name := range []string{"f51m", "9sym", "addm4"} {
		c, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("unknown bench circuit %q", name)
		}
		stats := func(deadline bool, workers int) []byte {
			ctx := context.Background()
			if deadline {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Minute)
				defer cancel()
			}
			opt := core.DefaultOptions()
			opt.Obs = obs.NewCollector()
			opt.Workers = workers
			res, err := core.Synthesize(ctx, c.Build(), opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			b, err := json.Marshal(res.RunStats(name).StripVolatile())
			if err != nil {
				t.Fatalf("%s: marshal: %v", name, err)
			}
			return b
		}
		ref := stats(false, 1)
		for _, workers := range []int{1, 4} {
			if got := stats(true, workers); !bytes.Equal(ref, got) {
				t.Errorf("%s: stripped RunStats under a deadline at -j%d differ from the deadline-free run:\nno deadline: %s\ndeadline:    %s",
					name, workers, ref, got)
			}
		}
	}
}
