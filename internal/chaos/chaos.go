// Package chaos is the deterministic fault-injection harness of the
// synthesis pipeline. It compiles declarative injection Plans into the
// probe hooks that budget, bdd, ofdd, and core expose
// (core.ProbeHooks), and its Sweep driver enumerates plans over the
// Table 2 bench circuits to prove the graceful-degradation ladder
// mechanically: no matter which kernel fails, and no matter where,
//
//   - no panic escapes core.Synthesize,
//   - the returned network verifies equivalent to the specification,
//   - Result.Degradations names the injected failure truthfully, and
//   - schedule-independent plans produce bit-identical results at
//     every worker count.
//
// Every injected budget error carries the Marker prefix in its phase
// tag, so an injected trip is distinguishable from a real one in
// degradation reasons — that is what makes the truthfulness invariant
// assertable. All hooks are pure closures over the Plan: given the
// same plan, the same circuit, and the same worker count, an injection
// schedule is fully deterministic.
//
// The hooks cost one nil check per probe site when no plan is
// installed; production runs never pay for this package.
package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/budget"
	"repro/internal/core"
)

// Marker prefixes the phase tag of every injected *budget.Err (and the
// payload of every injected panic), so tests can tell an injected
// failure from a real one in degradation reasons and error messages.
const Marker = "chaos:"

// Plan is one declarative fault-injection schedule. The zero value
// injects nothing. A plan is immutable and safe for concurrent use;
// Hooks compiles it into fresh per-run closures, so one plan can drive
// many runs (the sweep reuses plans across circuits and worker
// counts).
type Plan struct {
	Name string

	// TripAtStep > 0 trips the run's budget from global work step N on
	// (or at exactly step N when StepOnce is set — a one-off per-phase
	// trip when StepLimit is "nodes" or "cubes").
	// Global step numbering interleaves across workers, so step plans
	// are not ScheduleIndependent.
	TripAtStep int64
	StepOnce   bool
	// StepLimit is the Limit of the injected error: "" means "steps"
	// (sticky); "nodes"/"cubes" model transient per-phase trips;
	// "canceled"/"deadline" model external aborts.
	StepLimit string

	// TripAtPoll > 0 makes the budget report exhaustion from the Nth
	// graceful Exceeded poll on. Poll trips are sticky by the Exceeded
	// contract; this is the deterministic route to the best-so-far
	// rung, since polarity search only ever polls.
	TripAtPoll int64

	// FailBDDAlloc > 0 fails every specification-BDD allocation that
	// would reach this node count. The shared BDD manager grows only in
	// sequential phases, so the failure point is deterministic at any
	// worker count.
	FailBDDAlloc int

	// FailOFDDAlloc > 0 fails derivation-OFDD allocations reaching this
	// node count, for output OFDDOutput (negative = every output).
	// Derivation managers are per-output, so the trip lands on the
	// targeted output at any worker count.
	FailOFDDAlloc int
	OFDDOutput    int

	// FailFactorAlloc > 0 fails factor-phase OFDD allocations reaching
	// this node count, on every factor OFDD manager. Only fires on the
	// OFDD factoring route — set UseOFDDMethod.
	FailFactorAlloc int

	// UseOFDDMethod runs the sweep's synthesis with MethodOFDD instead
	// of the default cube method, so factor-phase OFDD probes have a
	// manager to attach to.
	UseOFDDMethod bool

	// PanicAtPhase panics on entry to the named pipeline phase,
	// exercising the residual recover boundary; CancelAtPhase cancels
	// the run's context there, exercising the ladder's cancellation
	// path end to end.
	PanicAtPhase  string
	CancelAtPhase string

	// PanicWorker panics at the top of every basis arm of output
	// PanicOutput, inside the worker goroutine, exercising the
	// per-output residual capture and its re-raise across the merge
	// barrier.
	PanicWorker bool
	PanicOutput int

	// WorkerDelay stalls the top of every basis arm by a per-output
	// delay, staggering the derivation workers. A pure scheduling
	// perturbation: the merged result must be bit-identical to an
	// uninjected run at the same basis.
	WorkerDelay time.Duration

	// Basis selects the synthesis basis the plan runs under: "xor",
	// "sop", "auto", or "race" (core.ParseBasis). "" pins the paper's
	// pure GF(2) flow, the same as "xor".
	Basis string

	// TripArm injects a budget trip ("nodes") inside the named basis
	// arm ("xor" or "sop") of output ArmOutput; PanicArm injects a
	// plain panic there instead. Both fire inside the arm's containment
	// boundary, so under a hedged basis the run must complete with the
	// sibling arm's verified result and the injection named in the
	// degradation trail — never an error.
	TripArm   string
	PanicArm  string
	ArmOutput int
}

// Injects reports whether the plan perturbs the run at all (worker
// delays count: they perturb the schedule, if nothing else).
func (p Plan) Injects() bool {
	return p.TripAtStep > 0 || p.TripAtPoll > 0 || p.FailBDDAlloc > 0 ||
		p.FailOFDDAlloc > 0 || p.FailFactorAlloc > 0 ||
		p.PanicAtPhase != "" || p.CancelAtPhase != "" || p.PanicWorker ||
		p.WorkerDelay > 0 || p.TripArm != "" || p.PanicArm != ""
}

// ExpectsError reports whether the plan makes Synthesize return an
// error instead of a degraded network: injected panics are bugs by
// definition, and the ladder's contract is to surface them, not to
// absorb them. Arm-targeted injections (TripArm/PanicArm) never expect
// an error — they fire inside the arbiter's per-arm containment
// boundary, whose contract is the opposite: the sibling arm's verified
// result covers the cone. A worker panic is likewise contained unless
// the targeted cone runs the GF(2) arm alone: an SOP arm's own boundary
// catches it, and a hedged cone's GF(2) failure falls to that sibling.
// xorOnly reports whether the targeted cone runs the GF(2) arm alone.
func (p Plan) ExpectsError(xorOnly bool) bool {
	if p.PanicAtPhase != "" {
		return true
	}
	return p.PanicWorker && xorOnly
}

// ScheduleIndependent reports whether the plan's injection schedule is
// identical at every worker count. The global step and poll counters
// are shared across workers, so which output's guarded region observes
// a counter-keyed trip first depends on the schedule; every other
// probe keys off per-output or sequential-phase state.
func (p Plan) ScheduleIndependent() bool {
	return p.TripAtStep == 0 && p.TripAtPoll == 0
}

// Hooks compiles the plan into the probe hooks for one synthesis run.
// cancel must be the CancelFunc of the context the run is given
// (required only when CancelAtPhase is set), so build one per run.
func (p Plan) Hooks(cancel context.CancelFunc) *core.ProbeHooks {
	h := &core.ProbeHooks{}
	if p.TripAtStep > 0 {
		lim := p.StepLimit
		if lim == "" {
			lim = "steps"
		}
		n := p.TripAtStep
		once := p.StepOnce
		h.BudgetStep = func(phase string, step int64) *budget.Err {
			// The atomic step counter hands each value to exactly one
			// goroutine, so "step == n" fires exactly once with no
			// extra state even under full contention.
			if step == n || (!once && step > n) {
				return &budget.Err{Phase: Marker + "step", Limit: lim, Max: n, Used: step}
			}
			return nil
		}
	}
	if p.TripAtPoll > 0 {
		n := p.TripAtPoll
		h.BudgetPoll = func(poll int64) *budget.Err {
			if poll >= n {
				return &budget.Err{Phase: Marker + "poll", Limit: "steps", Max: n, Used: poll}
			}
			return nil
		}
	}
	if p.FailBDDAlloc > 0 {
		h.BDDAlloc = allocProbe("bdd-alloc", p.FailBDDAlloc)
	}
	if p.FailOFDDAlloc > 0 {
		target, probe := p.OFDDOutput, allocProbe("ofdd-alloc", p.FailOFDDAlloc)
		h.OFDDAlloc = func(output int) func(nodes int) *budget.Err {
			if target >= 0 && output != target {
				return nil
			}
			return probe
		}
	}
	if p.FailFactorAlloc > 0 {
		h.FactorOFDDAlloc = allocProbe("factor-alloc", p.FailFactorAlloc)
	}
	if p.PanicAtPhase != "" || p.CancelAtPhase != "" {
		panicAt, cancelAt := p.PanicAtPhase, p.CancelAtPhase
		h.Phase = func(name string) {
			if name == cancelAt && cancel != nil {
				cancel()
			}
			if name == panicAt {
				panic(fmt.Sprintf("%sinjected panic at phase %q", Marker, name))
			}
		}
	}
	if p.PanicWorker || p.WorkerDelay > 0 || p.TripArm != "" || p.PanicArm != "" {
		panicWorker, panicOutput, delay := p.PanicWorker, p.PanicOutput, p.WorkerDelay
		tripArm, panicArm, armOut := p.TripArm, p.PanicArm, p.ArmOutput
		h.Arm = func(basis string, output int) {
			if delay > 0 {
				// Deterministic in the output index, never in the worker
				// running it: the stagger shakes the schedule without
				// making any output's own work depend on who runs it.
				time.Sleep(time.Duration(output%3) * delay)
			}
			if panicWorker && output == panicOutput {
				panic(fmt.Sprintf("%sinjected panic in worker deriving output %d", Marker, output))
			}
			if basis == tripArm && output == armOut {
				// A *budget.Err panic is exactly what a real budget trip
				// inside the arm looks like; the containment boundary
				// records it as the arm's failure.
				panic(&budget.Err{Phase: Marker + "arm", Limit: "nodes", Max: 1, Used: 1})
			}
			if basis == panicArm && output == armOut {
				panic(fmt.Sprintf("%sinjected panic in %s arm of output %d", Marker, basis, output))
			}
		}
	}
	return h
}

// allocProbe returns an allocation probe that fails every allocation
// reaching t nodes with a marked "nodes" trip named after its site.
func allocProbe(site string, t int) func(nodes int) *budget.Err {
	return func(nodes int) *budget.Err {
		if nodes >= t {
			return &budget.Err{Phase: Marker + site, Limit: "nodes", Max: int64(t), Used: int64(nodes)}
		}
		return nil
	}
}

// Plans returns the deterministic plan set the sweep always runs: at
// least one plan per probe site, covering sticky and one-off trips,
// targeted and broadcast allocation failures, injected panics at a
// sequential phase and inside a worker, cancellation, and a pure
// scheduling perturbation — each on the pure GF(2) flow and again at
// the default basis auto, where the same fault can land on a hedged
// cone, an SOP-only cone, or a losing candidate. numOutputs scopes the
// targeted plans.
func Plans(numOutputs int) []Plan {
	last := numOutputs - 1
	if last < 0 {
		last = 0
	}
	curated := []Plan{
		{Name: "step-sticky", TripAtStep: 400},
		{Name: "step-transient", TripAtStep: 900, StepOnce: true, StepLimit: "nodes"},
		{Name: "step-early", TripAtStep: 1},
		{Name: "step-cancel", TripAtStep: 250, StepLimit: "canceled"},
		{Name: "poll-early", TripAtPoll: 1},
		{Name: "poll-mid", TripAtPoll: 6},
		{Name: "bdd-alloc-tiny", FailBDDAlloc: 8},
		{Name: "bdd-alloc-mid", FailBDDAlloc: 96},
		{Name: "ofdd-first", FailOFDDAlloc: 6, OFDDOutput: 0},
		{Name: "ofdd-last", FailOFDDAlloc: 6, OFDDOutput: last},
		{Name: "ofdd-all", FailOFDDAlloc: 10, OFDDOutput: -1},
		{Name: "factor-alloc", FailFactorAlloc: 24, UseOFDDMethod: true},
		{Name: "panic-fprm", PanicAtPhase: "fprm"},
		{Name: "panic-emit", PanicAtPhase: "emit"},
		{Name: "panic-worker", PanicWorker: true, PanicOutput: 0},
		{Name: "cancel-spec-bdd", CancelAtPhase: "spec-bdd"},
		{Name: "cancel-fprm", CancelAtPhase: "fprm"},
		{Name: "cancel-redund", CancelAtPhase: "redund"},
		{Name: "worker-delay", WorkerDelay: 100 * time.Microsecond},
	}
	plans := append([]Plan(nil), curated...)
	for _, p := range curated {
		p.Name += "@auto"
		p.Basis = "auto"
		plans = append(plans, p)
	}
	return append(plans, []Plan{
		// Arm-targeted faults under the raced basis: killing either arm
		// of a hedged cone — by budget trip or by panic — must yield the
		// sibling arm's verified result, truthfully attributed; stalling
		// both arms of every cone must change nothing at all.
		{Name: "arm-trip-xor", Basis: "race", TripArm: "xor", ArmOutput: 0},
		{Name: "arm-trip-sop", Basis: "race", TripArm: "sop", ArmOutput: last},
		{Name: "arm-panic-xor", Basis: "race", PanicArm: "xor", ArmOutput: last},
		{Name: "arm-panic-sop", Basis: "race", PanicArm: "sop", ArmOutput: 0},
		{Name: "worker-delay@race", Basis: "race", WorkerDelay: 100 * time.Microsecond},
	}...)
}

// RandomPlans returns n seeded plans drawn over every probe site and a
// wide threshold range. The same (n, seed, numOutputs) always yields
// the same plans, so a sweep failure reproduces from its seed. Plans
// whose thresholds land beyond what the circuit ever allocates are
// harmless: the sweep accepts "no injection fired, result identical to
// baseline" as truthful.
func RandomPlans(n int, seed int64, numOutputs int) []Plan {
	if n <= 0 {
		return nil
	}
	r := rand.New(rand.NewSource(seed))
	phases := []string{"spec-bdd", "fprm", "factor", "emit", "redund", "merge"}
	limits := []string{"", "", "nodes", "cubes", "canceled"}
	arms := []string{"xor", "sop"}
	ps := make([]Plan, 0, n)
	for i := 0; i < n; i++ {
		p := Plan{Name: fmt.Sprintf("rand-%d-%d", seed, i)}
		switch r.Intn(9) {
		case 0:
			p.TripAtStep = int64(1 + r.Intn(5000))
			p.StepOnce = r.Intn(2) == 0
			p.StepLimit = limits[r.Intn(len(limits))]
		case 1:
			p.TripAtPoll = int64(1 + r.Intn(40))
		case 2:
			p.FailBDDAlloc = 1 + r.Intn(3000)
		case 3:
			p.FailOFDDAlloc = 1 + r.Intn(200)
			p.OFDDOutput = r.Intn(numOutputs+1) - 1 // -1 = all outputs
		case 4:
			p.FailFactorAlloc = 1 + r.Intn(400)
			p.UseOFDDMethod = true
		case 5:
			p.PanicAtPhase = phases[r.Intn(len(phases))]
		case 6:
			p.CancelAtPhase = phases[r.Intn(len(phases))]
		case 7:
			p.WorkerDelay = time.Duration(1+r.Intn(200)) * time.Microsecond
		case 8:
			p.Basis = "race"
			if numOutputs > 0 {
				p.ArmOutput = r.Intn(numOutputs)
			}
			arm := arms[r.Intn(len(arms))]
			if r.Intn(2) == 0 {
				p.TripArm = arm
			} else {
				p.PanicArm = arm
			}
		}
		ps = append(ps, p)
	}
	return ps
}
