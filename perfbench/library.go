package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sisbase"
	"repro/internal/techmap"
	"repro/internal/verify"
	"repro/internal/wordgen"
)

// libItem is one circuit of a library workload: its specification and,
// for generated arithmetic, the word-level golden model.
type libItem struct {
	name string
	spec *network.Network
	word *wordgen.Spec
}

// libFlow is a workload that calls the library directly, one circuit at
// a time from a single caller.
type libFlow struct {
	core core.Options
	// sis marks the Table 2 flow: results are checked with
	// verify.Equivalent, and traced runs add the SIS leg (sisbase.Run,
	// checked the same way) before the paper's flow. Otherwise each
	// result is checked with verify.Word against its golden model.
	sis          bool
	verifyLimits budget.Limits
	// setup builds the items, recording its calls on tr, and returns
	// the time spent inside those calls.
	setup func(tr *Tracer) ([]libItem, time.Duration, error)
}

// table2Flow is the paper's experiment: the 41 built-in circuits at the
// default options, SIS leg included.
func table2Flow() libFlow {
	return libFlow{
		core: core.DefaultOptions(),
		sis:  true,
		setup: func(tr *Tracer) ([]libItem, time.Duration, error) {
			var items []libItem
			var total time.Duration
			for _, c := range bench.Circuits() {
				var spec *network.Network
				total += tr.Time(0, "bench", "bench.Circuit.Build", c.Name, func() { spec = c.Build() })
				items = append(items, libItem{name: c.Name, spec: spec})
			}
			return items, total, nil
		},
	}
}

// arithPoints are the (family, width) points of the committed scaling
// baseline.
var arithPoints = []struct {
	family string
	widths []int
}{
	{"add", []int{4, 8, 16, 32}},
	{"cla", []int{4, 8, 16, 32}},
	{"gfmul", []int{4, 8, 16}},
	{"hamming", []int{8, 16, 32}},
	{"mul", []int{4, 8, 16, 32}},
	{"parity", []int{8, 16, 32, 64}},
	{"wallace", []int{4, 8, 16}},
}

// arithFlow is generated word-level arithmetic under the scaling gate's
// deterministic caps: no wall-clock deadline, so degradations repeat.
func arithFlow() libFlow {
	scale := bench.DefaultScaleOptions()
	return libFlow{
		core:         scale.Core,
		verifyLimits: scale.VerifyLimits,
		setup: func(tr *Tracer) ([]libItem, time.Duration, error) {
			var items []libItem
			var total time.Duration
			for _, p := range arithPoints {
				for _, w := range p.widths {
					var s *wordgen.Spec
					var err error
					total += tr.Time(0, "wordgen", "wordgen.Generate", fmt.Sprintf("%s%d", p.family, w), func() {
						s, err = wordgen.Generate(p.family, w)
					})
					if err != nil {
						return nil, 0, err
					}
					items = append(items, libItem{name: s.Name, spec: s.Net, word: s})
				}
			}
			return items, total, nil
		},
	}
}

// passResult is what one pass over every item measured.
type passResult struct {
	traced  bool
	wall    time.Duration
	synth   map[string]float64 // core.Synthesize seconds per item
	req     map[string]float64 // whole-flow milliseconds per item
	sis     float64            // summed sisbase.Run seconds
	allocMB float64
	counts  map[string]int64
	layer   map[string]float64 // per-layer sums; traced passes only
	failed  []string
}

// minPasses is how many passes an untraced run makes at least, so that
// each circuit's time shrugs off a pass slowed by the host.
const minPasses = 2

// runLibrary sets the workload up setupRuns times, then runs whole
// passes until the next one would overrun the run time. Each circuit's
// time is its fastest over the passes: a busy host only ever adds time,
// so the minimum is the steadiest estimate of what the circuit costs.
//
// A traced run makes one untraced and one traced pass, both with the
// SIS leg when the workload has one: the per-layer numbers come from the
// traced pass, the tracing overhead and sis_ratio from comparing with
// the untraced one.
func runLibrary(cfg runConfig, flow libFlow) (*outcome, error) {
	out := newOutcome()
	var items []libItem
	var setups, layerSetup []float64
	for i := 0; i < setupRuns; i++ {
		// Only the last set-up's calls go into the trace, so that self
		// times cover one set-up like they cover the traced pass.
		var tr *Tracer
		if i == setupRuns-1 {
			tr = cfg.tracer
		}
		start := time.Now()
		var inCalls time.Duration
		var err error
		if items, inCalls, err = flow.setup(tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		layerSetup = append(layerSetup, inCalls.Seconds())
	}
	out.set("setup_s", Median(setups))
	if flow.sis {
		out.set("bench.build_s", Median(layerSetup))
	} else {
		out.set("wordgen.generate_s", Median(layerSetup))
	}

	lib := techmap.Library()
	rng := rand.New(rand.NewSource(cfg.seed))
	withSIS := flow.sis && cfg.tracer != nil
	var passes []passResult
	start := time.Now()
	cpu0 := cpuSeconds()
	defer func() {
		// CPU well below twice the wall time on two CPUs points at a
		// host that kept the run waiting.
		out.note("run: wall %.2fs, process CPU %.2fs", time.Since(start).Seconds(), cpuSeconds()-cpu0)
	}()
	for {
		traced := cfg.tracer != nil && len(passes) == 1
		p := runPass(flow, items, rng.Perm(len(items)), lib, traced, withSIS, cfg.tracer)
		passes = append(passes, p)
		if cfg.tracer != nil && len(passes) == 2 {
			break
		}
		if cfg.tracer == nil && len(passes) >= minPasses && time.Since(start)+p.wall > cfg.seconds {
			break
		}
	}

	synth, req := map[string][]float64{}, map[string][]float64{}
	var walls, alloc []float64
	for _, p := range passes {
		out.attempted += len(items)
		out.failures = append(out.failures, p.failed...)
		if err := out.addCounts(p.counts); err != nil {
			out.failures = append(out.failures, err.Error())
		}
		if p.traced {
			out.addLayer(p.layer)
			out.finishLayers(1)
			out.set("trace.overhead_ratio", p.wall.Seconds()/passes[0].wall.Seconds())
			continue
		}
		if withSIS {
			out.set("sis_ratio", sumValues(p.synth)/p.sis)
			out.note("sis_ratio %.3f (core.Synthesize total / sisbase.Run total over one untraced pass)", sumValues(p.synth)/p.sis)
		}
		for name, s := range p.synth {
			synth[name] = append(synth[name], s)
		}
		for name, ms := range p.req {
			req[name] = append(req[name], ms)
		}
		walls = append(walls, p.wall.Seconds())
		alloc = append(alloc, p.allocMB)
	}
	var synthS, synthMS, reqMS []float64
	for _, it := range items {
		if len(synth[it.name]) == 0 || len(req[it.name]) == 0 {
			continue // its failure is already recorded
		}
		synthS = append(synthS, Min(synth[it.name]))
		synthMS = append(synthMS, 1000*Min(synth[it.name]))
		reqMS = append(reqMS, Min(req[it.name]))
	}
	out.set("synth_s", Sum(synthS))
	out.set("synth_geomean_ms", GeoMean(synthMS))
	out.set("alloc_mb", Median(alloc))
	out.setRequests(reqMS, float64(len(items))/Median(walls))
	for k, v := range passes[0].counts {
		out.set(k, float64(v))
	}
	out.note("%d passes over %d circuits", len(passes), len(items))
	return out, nil
}

func sumValues(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

// runPass runs every item once in the given order.
func runPass(flow libFlow, items []libItem, order []int, lib []techmap.Cell, traced, withSIS bool, tr *Tracer) passResult {
	if !traced {
		tr = nil
	}
	p := passResult{
		traced: traced, synth: map[string]float64{}, req: map[string]float64{},
		counts: map[string]int64{}, layer: map[string]float64{},
	}
	ctx := context.Background()
	before := totalAlloc()
	start := time.Now()
	passID := tr.Begin(0, "bench", "pass", "")
	for _, i := range order {
		it := items[i]
		cid := tr.Begin(passID, "bench", "circuit", it.name)
		itemStart := time.Now()
		err := runItem(ctx, flow, it, lib, traced, withSIS, tr, cid, &p)
		tr.End(cid)
		if err != nil {
			p.failed = append(p.failed, it.name+": "+err.Error())
			continue
		}
		p.req[it.name] = float64(time.Since(itemStart)) / float64(time.Millisecond)
	}
	tr.End(passID)
	p.wall = time.Since(start)
	p.allocMB = float64(totalAlloc()-before) / (1 << 20)
	return p
}

// runItem runs one circuit through the workload's flow and checks it.
func runItem(ctx context.Context, flow libFlow, it libItem, lib []techmap.Cell, traced, withSIS bool, tr *Tracer, cid int, p *passResult) error {
	if withSIS {
		var sres *sisbase.Result
		var err error
		var mb float64
		d := tr.Time(cid, "sisbase", "sisbase.Run", it.name, func() {
			mb = allocMB(traced, func() { sres, err = sisbase.Run(ctx, it.spec, sisbase.DefaultOptions()) })
		})
		if err != nil {
			return fmt.Errorf("sisbase.Run: %w", err)
		}
		p.sis += d.Seconds()
		p.layer["sisbase.run_s"] += d.Seconds()
		p.layer["sisbase.alloc_mb"] += mb
		if err := equivalent(tr, cid, it, sres.Network, p); err != nil {
			return fmt.Errorf("SIS leg: %w", err)
		}
	}

	opt := flow.core
	if traced {
		opt.Obs = obs.NewCollector()
	}
	var res *core.Result
	var err error
	var mb float64
	d := tr.Time(cid, "core", "core.Synthesize", it.name, func() {
		mb = allocMB(traced, func() { res, err = core.Synthesize(ctx, it.spec, opt) })
	})
	if err != nil {
		return fmt.Errorf("core.Synthesize: %w", err)
	}
	p.synth[it.name] = d.Seconds()
	p.layer["core.alloc_mb"] += mb
	addCoreLayers(p.layer, res, d)
	addResultCounts(p.counts, res.BasisChoices, res.BudgetSteps, res.Stats.Lits, len(res.Degradations))
	if res.ObsStats != nil {
		addObs(p.layer, *res.ObsStats)
	}

	if flow.sis {
		if err := equivalent(tr, cid, it, res.Network, p); err != nil {
			return err
		}
	} else {
		var vr *verify.WordResult
		d := tr.Time(cid, "verify", "verify.Word", it.name, func() {
			vr, err = verify.Word(res.Network, it.word, verify.WordOptions{Budget: budget.New(ctx, flow.verifyLimits)})
		})
		p.layer["verify.word_s"] += d.Seconds()
		if err != nil {
			return fmt.Errorf("verify.Word: %w", err)
		}
		if !vr.OK {
			return fmt.Errorf("verify.Word: %s", vr.Mismatch)
		}
		if vr.Mode == "algebraic" {
			p.layer["verify.word_algebraic_points"]++
		}
		p.layer["verify.word_peak_monomials"] = max(p.layer["verify.word_peak_monomials"], float64(vr.Monomials))
	}

	var m *techmap.Result
	d = tr.Time(cid, "techmap", "techmap.Map", it.name, func() { m, err = techmap.Map(res.Network, lib) })
	if err != nil {
		return fmt.Errorf("techmap.Map: %w", err)
	}
	p.layer["techmap.map_s"] += d.Seconds()
	p.counts["map_lits"] += int64(m.Lits)
	p.counts["map_gates"] += int64(m.Gates)
	return nil
}

// equivalent checks got against the item's specification with BDDs.
func equivalent(tr *Tracer, cid int, it libItem, got *network.Network, p *passResult) error {
	var eq bool
	var err error
	d := tr.Time(cid, "verify", "verify.Equivalent", it.name, func() { eq, err = verify.Equivalent(it.spec, got) })
	p.layer["verify.equivalent_s"] += d.Seconds()
	if err != nil {
		return fmt.Errorf("verify.Equivalent: %w", err)
	}
	if !eq {
		return fmt.Errorf("verify.Equivalent: result differs from the specification")
	}
	return nil
}

// addCoreLayers adds one run's phase split: each phase in
// Result.PhaseTimes, the part of the call outside every phase, and the
// slowest per-output derivation.
func addCoreLayers(layer map[string]float64, res *core.Result, call time.Duration) {
	rest := call
	for _, pt := range res.PhaseTimes {
		layer["core.phase."+pt.Name+"_s"] += pt.Elapsed.Seconds()
		rest -= pt.Elapsed
	}
	layer["core.unattributed_s"] += rest.Seconds()
	var slowest time.Duration
	for _, o := range res.OutputTimes {
		slowest = max(slowest, o.Elapsed)
	}
	layer["core.fprm_output_max_s"] += slowest.Seconds()
}

// addResultCounts adds the deterministic counts of one synthesis result.
func addResultCounts(counts map[string]int64, choices []core.BasisChoice, steps int64, lits, degraded int) {
	counts["lits"] += int64(lits)
	counts["degraded"] += int64(degraded)
	counts["core.budget_steps"] += steps
	for _, c := range choices {
		if c.Output == "*" {
			continue
		}
		counts["arbiter.cones"]++
		if c.Predicted == "hedge" {
			counts["arbiter.hedged"]++
		}
		if c.SopLits >= 0 {
			counts["arbiter.sop_arm_runs"]++
			if c.Chosen == "sop" {
				counts["arbiter.sop_arm_kept"]++
			}
		}
	}
}

// addObs adds one run's decision-diagram, factor and search counters.
// Hit rates are kept as hit and attempt totals until finishLayers.
func addObs(layer map[string]float64, s obs.Stats) {
	layer["bdd.op_hits"] += float64(s.BDD.OpHits)
	layer["bdd.op_lookups"] += float64(s.BDD.OpHits + s.BDD.OpMisses)
	layer["bdd.peak_nodes"] += float64(s.BDD.PeakNodes)
	layer["ofdd.op_hits"] += float64(s.OFDD.OpHits)
	layer["ofdd.op_lookups"] += float64(s.OFDD.OpHits + s.OFDD.OpMisses)
	layer["ofdd.peak_nodes"] += float64(s.OFDD.PeakNodes)
	f := s.Factor
	layer["factor.rule_applications"] += float64(f.RuleA + f.RuleB + f.RuleC + f.RuleD + f.RuleE)
	layer["factor.divisor_hits"] += float64(f.DivisorHits)
	for _, o := range s.Outputs {
		layer["fprm.search_candidates"] += float64(o.Candidates)
	}
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// allocMB runs fn and, when measure is set, returns the MB it allocated.
// Reading the allocation total stops the world, so only traced passes
// pay for it.
func allocMB(measure bool, fn func()) float64 {
	if !measure {
		fn()
		return 0
	}
	before := totalAlloc()
	fn()
	return float64(totalAlloc()-before) / (1 << 20)
}

// cpuSeconds is the process's user and system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
