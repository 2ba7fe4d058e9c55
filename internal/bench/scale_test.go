package bench

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/wordgen"
)

func TestParseWidths(t *testing.T) {
	cases := []struct {
		in   string
		want []int
	}{
		{"4:64", []int{4, 8, 16, 32, 64}},
		{"4:32", []int{4, 8, 16, 32}},
		{"3:12", []int{3, 6, 12}},
		{"8", []int{8}},
		{"4,6,12", []int{4, 6, 12}},
	}
	for _, tc := range cases {
		got, err := ParseWidths(tc.in)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseWidths(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "0", "8:4", "a:b", "4,x"} {
		if _, err := ParseWidths(bad); err == nil {
			t.Errorf("ParseWidths(%q): expected error", bad)
		}
	}
}

func TestResolveGenerated(t *testing.T) {
	if c, ok := Resolve("mul4"); !ok || c.In != 8 || c.Out != 8 || !c.Arith {
		t.Fatalf("Resolve(mul4) = %+v, %v", c, ok)
	}
	if _, ok := Resolve("f2"); !ok {
		t.Fatal("Resolve(f2): fixed Table 2 circuit not found")
	}
	if _, ok := Resolve("nosuch99"); ok {
		t.Fatal("Resolve(nosuch99): expected failure")
	}
}

func TestScaleReportRoundTrip(t *testing.T) {
	rep := BuildScaleReport([]ScalePoint{
		{Family: "mul", Width: 8, Name: "mul8", TimeMS: 5, Costs: Costs{OursLits: 100}},
		{Family: "add", Width: 4, Name: "add4", TimeMS: 1, Costs: Costs{OursLits: 10}},
		{Family: "mul", Width: 4, Name: "mul4", TimeMS: 2, Costs: Costs{OursLits: 40}},
	})
	// Canonical order: family, then width.
	if rep.Points[0].Name != "add4" || rep.Points[1].Name != "mul4" || rep.Points[2].Name != "mul8" {
		t.Fatalf("wrong canonical order: %+v", rep.Points)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scale.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// The reader returns the report its schema names and no other: the
	// -check dispatcher relies on that, not on luck.
	table, got, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if table != nil {
		t.Fatal("ReadBaseline returned an rmbench/v1 report for an rmscale/v1 file")
	}
	if !reflect.DeepEqual(rep, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", rep, got)
	}
}

// TestCheckScaleSemantics drives the gate on synthetic reports: one-
// sided quality checks, family-scoped missing-point handling, the time
// tolerance, and the log-log slope trend.
func TestCheckScaleSemantics(t *testing.T) {
	base := BuildScaleReport([]ScalePoint{
		{Family: "mul", Width: 4, Name: "mul4", TimeMS: 10, Costs: Costs{OursLits: 100, MapGates: 40, MapLits: 90, Verified: true}},
		{Family: "mul", Width: 8, Name: "mul8", TimeMS: 40, Costs: Costs{OursLits: 400, MapGates: 160, MapLits: 360, Verified: true}},
		{Family: "mul", Width: 16, Name: "mul16", TimeMS: 160, Costs: Costs{OursLits: 1600, MapGates: 640, MapLits: 1440, Verified: true}},
		{Family: "add", Width: 4, Name: "add4", TimeMS: 1, Costs: Costs{OursLits: 30, MapGates: 10, MapLits: 25, Verified: true}},
	})

	// Identical report: clean.
	if regs := CheckScale(base, base); len(regs) != 0 {
		t.Fatalf("self-check regressed: %v", regs)
	}

	// A mul-only run must not complain about the absent add point...
	mulOnly := BuildScaleReport(base.Points[1:])
	if regs := CheckScale(mulOnly, base); len(regs) != 0 {
		t.Fatalf("family scoping failed: %v", regs)
	}
	// ...but a mul run missing a baseline mul point is a regression.
	holey := BuildScaleReport(base.Points[1:3])
	regs := CheckScale(holey, base)
	if len(regs) != 1 || regs[0].Kind != "missing" || regs[0].Circuit != "mul16" {
		t.Fatalf("missing-point detection: %v", regs)
	}

	worse := func(mut func(p *ScalePoint)) *ScaleReport {
		pts := append([]ScalePoint(nil), base.Points...)
		for i := range pts {
			if pts[i].Name == "mul8" {
				mut(&pts[i])
			}
		}
		return BuildScaleReport(pts)
	}
	kinds := func(regs []Regression) []string {
		var ks []string
		for _, r := range regs {
			ks = append(ks, r.Kind)
		}
		return ks
	}
	if regs := CheckScale(worse(func(p *ScalePoint) { p.OursLits++ }), base); len(regs) != 1 || regs[0].Kind != "literals" {
		t.Fatalf("literal increase: %v", regs)
	}
	if regs := CheckScale(worse(func(p *ScalePoint) { p.Verified = false }), base); len(regs) != 1 || regs[0].Kind != "verification" {
		t.Fatalf("verification flip: %v", regs)
	}
	if regs := CheckScale(worse(func(p *ScalePoint) { p.Degradations = 3 }), base); len(regs) != 1 || regs[0].Kind != "degradations" {
		t.Fatalf("degradation increase: %v", regs)
	}
	// Inside the tolerance band: 4x + 250ms.
	if regs := CheckScale(worse(func(p *ScalePoint) { p.TimeMS = 4*40 + 200 }), base); len(regs) != 0 {
		t.Fatalf("time inside tolerance flagged: %v", regs)
	}
	if regs := CheckScale(worse(func(p *ScalePoint) { p.TimeMS = 4*40 + 300 }), base); len(regs) != 1 || regs[0].Kind != "time" {
		t.Fatalf("time outside tolerance: %v", regs)
	}

	// Slope: blow up the top of the curve superlinearly (but keep every
	// point inside its per-point tolerance) — only the trend check can
	// see it. Baseline mul slope is ~2 (quadratic); cur bends to ~3.5.
	pts := append([]ScalePoint(nil), base.Points...)
	for i := range pts {
		switch pts[i].Name {
		case "mul8":
			pts[i].TimeMS = 40 * 3
		case "mul16":
			pts[i].TimeMS = 160 * 4
		}
	}
	regs = CheckScale(BuildScaleReport(pts), base)
	found := false
	for _, r := range regs {
		if r.Kind == "time-scaling" && r.Circuit == "mul" {
			found = true
		}
	}
	if !found {
		t.Fatalf("superlinear trend not flagged: %v (kinds %v)", regs, kinds(regs))
	}
}

// TestScaleGateTripsOnWorsenedFlow is the acceptance-criterion test: a
// baseline measured with the full flow, re-measured with the reduction
// rules disabled, must fail the gate on quality.
func TestScaleGateTripsOnWorsenedFlow(t *testing.T) {
	specs := make([]*wordgen.Spec, 0, 2)
	for _, name := range []string{"cla4", "cla8"} {
		s, err := wordgen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	run := func(opt ScaleOptions) *ScaleReport {
		var pts []ScalePoint
		for _, s := range specs {
			pt := RunScalePoint(context.Background(), s, opt)
			if pt.Err != "" {
				t.Fatalf("%s: %s", pt.Name, pt.Err)
			}
			pts = append(pts, pt)
		}
		return BuildScaleReport(pts)
	}
	good := DefaultScaleOptions()
	base := run(good)
	if regs := CheckScale(run(good), base); len(regs) != 0 {
		t.Fatalf("deterministic re-run regressed against itself: %v", regs)
	}
	worsened := DefaultScaleOptions()
	worsened.Core.Rules = false
	regs := CheckScale(run(worsened), base)
	if len(regs) == 0 {
		t.Fatal("gate passed a flow with the reduction rules disabled")
	}
	quality := false
	for _, r := range regs {
		switch r.Kind {
		case "literals", "map-gates", "map-literals":
			quality = true
		}
	}
	if !quality {
		t.Fatalf("expected a quality regression, got only: %v", regs)
	}
}
