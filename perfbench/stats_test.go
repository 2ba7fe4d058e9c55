package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/network"
	"repro/internal/verify"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestPercentileCountsSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		p          float64
		want       float64
		wantBeyond int
	}{
		{100, 99, 99, 1},
		{100, 90, 90, 10},
		{100, 50, 50, 50},
		{1000, 99, 990, 10},
		{41, 75, 31, 10},
		{1, 99, 1, 0},
	} {
		v, beyond := Percentile(seq(tc.n), tc.p)
		if v != tc.want || beyond != tc.wantBeyond {
			t.Errorf("Percentile(1..%d, %g) = %g, %d beyond; want %g, %d", tc.n, tc.p, v, beyond, tc.want, tc.wantBeyond)
		}
	}
	if v, _ := Percentile(nil, 50); !math.IsNaN(v) {
		t.Errorf("Percentile(nil) = %g, want NaN", v)
	}
	// Neighbours around the rank are averaged, as many on each side.
	gappy := []float64{1, 2, 3, 10, 100, 101, 102}
	if v, _ := Percentile(gappy, 50); v != (2+3+10+100+101)/5.0 {
		t.Errorf("smoothed median = %g", v)
	}
	if v, _ := Percentile(gappy, 100); v != 102 {
		t.Errorf("smoothed maximum = %g, want the maximum itself", v)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		wantP      float64
		wantBeyond int
	}{
		{1000, 99, 10},
		{2000, 99, 20},
		{100, 90, 10},
		{155, 100 * 145.0 / 155, 10},
		{41, 100 * 31.0 / 41, 10},
		{25, 60, 10},
		{5, 50, 2}, // too few for any tail: the median, with its count
	} {
		p, _, beyond := Tail(seq(tc.n))
		if p != tc.wantP || beyond != tc.wantBeyond {
			t.Errorf("Tail(n=%d) = p%g with %d beyond; want p%g with %d", tc.n, p, beyond, tc.wantP, tc.wantBeyond)
		}
	}
}

func TestMedianAndGeoMean(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median odd = %g", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median even = %g", got)
	}
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 100}, 10},
		{[]float64{2, 8}, 4},
		{[]float64{5}, 5},
		{[]float64{1, 10, 100}, 10},
	} {
		if got := GeoMean(tc.xs); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("GeoMean(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
}

func TestSelfTimesSubtractsChildCoverage(t *testing.T) {
	spans := []Span{
		{ID: 1, Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "core", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "verify", Start: 30, End: 60}, // overlaps span 2
		{ID: 4, Parent: 2, Layer: "network", Start: 15, End: 20},
		{ID: 5, Parent: 1, Layer: "techmap", Start: 90, End: 120}, // runs past its parent
		{ID: 6, Layer: "core", Start: 200, End: 210},
	}
	got := SelfTimes(spans)
	want := map[string]int64{
		"bench":   100 - 50 - 10, // [10,60] and [90,100] covered
		"core":    25 + 10,
		"verify":  30,
		"network": 5,
		"techmap": 30,
	}
	for layer, w := range want {
		if int64(got[layer]) != w {
			t.Errorf("self %s = %d, want %d", layer, got[layer], w)
		}
	}
}

func TestMetricDeltasFromExposition(t *testing.T) {
	before := ParseMetrics(`# HELP rmsynd_shed_total requests refused
# TYPE rmsynd_shed_total counter
rmsynd_shed_total 3
rmsynd_cache_coalesced_total 10
rmsynd_responses_total{code="ok"} 40
`)
	after := ParseMetrics(`rmsynd_shed_total 5
rmsynd_cache_coalesced_total 10
rmsynd_responses_total{code="ok"} 90
rmsynd_admission_shrinks_total 2
`)
	d := MetricDeltas(before, after)
	for k, w := range map[string]float64{
		"rmsynd_shed_total":                 2,
		"rmsynd_cache_coalesced_total":      0,
		`rmsynd_responses_total{code="ok"}`: 50,
		"rmsynd_admission_shrinks_total":    2,
	} {
		if d[k] != w {
			t.Errorf("delta %s = %g, want %g", k, d[k], w)
		}
	}
	if len(before) != 3 {
		t.Errorf("parsed %d series from the first exposition, want 3 (comments skipped)", len(before))
	}
}

// The metric catalogue and BENCHMARK.json must name the same metrics,
// in the same order, with the same units.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the catalogue %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), catalogue %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestRenameInternalKeepsFunctionAndInterface(t *testing.T) {
	c, ok := bench.ByName("z4ml")
	if !ok {
		t.Fatal("z4ml missing")
	}
	spec := c.Build()
	var blif bytes.Buffer
	if err := spec.WriteBLIF(&blif); err != nil {
		t.Fatal(err)
	}
	renamed := renameInternal(blif.Bytes(), "w7_0_")
	if bytes.Equal(renamed, blif.Bytes()) || !bytes.Contains(renamed, []byte("w7_0_0")) {
		t.Fatal("no internal signal was renamed")
	}
	got, err := network.ReadBLIF(bytes.NewReader(renamed))
	if err != nil {
		t.Fatal(err)
	}
	if eq, err := verify.Equivalent(spec, got); err != nil || !eq {
		t.Fatalf("renamed body is not equivalent (%v)", err)
	}
	for i, pi := range spec.PIs {
		if spec.Gates[pi].Name != got.Gates[got.PIs[i]].Name {
			t.Errorf("input %d renamed", i)
		}
	}
	for i, po := range spec.POs {
		if po.Name != got.POs[i].Name {
			t.Errorf("output %d renamed", i)
		}
	}
	if !strings.HasPrefix(string(renamed), ".model z4ml") {
		t.Error("model name changed")
	}
}

func TestPlanPassIsSeededWithAFixedMix(t *testing.T) {
	const pool = 31
	a := planPass(rand.New(rand.NewSource(7)), pool)
	b := planPass(rand.New(rand.NewSource(7)), pool)
	c := planPass(rand.New(rand.NewSource(8)), pool)
	if len(a) != pool*(1+hitsPerMiss) {
		t.Fatalf("pass has %d requests, want %d", len(a), pool*(1+hitsPerMiss))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different pass at %d", i)
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("another seed drew the same pass")
	}
	misses, hits := make([]int, pool), make([]int, pool)
	for _, p := range a {
		if p.miss {
			misses[p.circuit]++
		} else {
			hits[p.circuit]++
		}
	}
	for c := 0; c < pool; c++ {
		if misses[c] != 1 || hits[c] != hitsPerMiss {
			t.Errorf("circuit %d: %d misses, %d hits; want 1, %d", c, misses[c], hits[c], hitsPerMiss)
		}
	}
}

func TestStreamStopsAtAPassBoundary(t *testing.T) {
	s := newStream(1, 3)
	s.window(0)
	if _, _, ok := s.take(); ok {
		t.Fatal("an ended window started a pass")
	}
	s.window(time.Hour)
	s.take()
	s.window(0) // ends while a pass is under way
	n := 1
	for {
		if _, _, ok := s.take(); !ok {
			break
		}
		n++
	}
	if want := 3 * (1 + hitsPerMiss); n != want {
		t.Errorf("window issued %d requests, want one whole pass of %d", n, want)
	}
}
