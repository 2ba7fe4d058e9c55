package chaos

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/verify"
)

// SweepOptions configures a chaos sweep. The zero value runs the
// default deterministic plan set over a small, fast circuit subset.
// Every plan runs at each of sweepWorkers, under core's default retry
// factor.
type SweepOptions struct {
	// Circuits are Table 2 bench circuit names or generated word-level
	// instances like add4/gfmul8 (bench.Resolve). Empty means a small
	// default subset chosen to keep the sweep fast while covering
	// single- and multi-output circuits.
	Circuits []string
	// RandomPlans adds n plans per circuit on top of the deterministic
	// set, drawn from the fixed sweepSeed so they are reproducible.
	RandomPlans int
	// Logf, when set, receives one line per (circuit, plan, workers)
	// run — the sweep's progress trace.
	Logf func(format string, args ...any)
}

// sweepWorkers are the worker counts every plan runs at; identity is
// asserted across all of them.
var sweepWorkers = []int{1, 4}

// sweepSeed seeds the random plans.
const sweepSeed = 1

// Violation is one invariant breach found by Sweep. The sweep never
// stops at the first breach: it returns every violation so a failure
// shows the whole blast radius.
type Violation struct {
	Circuit   string
	Plan      string
	Workers   int
	Invariant string // "no-panic", "no-error", "error-report", "equivalent", "truthful", "identical", "delay-identity", "setup"
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s/%s/-j%d: %s: %s", v.Circuit, v.Plan, v.Workers, v.Invariant, v.Detail)
}

// outcome captures one chaos run: the result fingerprint, the error
// and escaped-panic channels, and the independent equivalence verdict.
type outcome struct {
	fp       fingerprint
	degs     []core.Degradation
	choices  []core.BasisChoice
	err      string
	escaped  string // non-empty when a panic escaped Synthesize
	equiv    bool
	equivErr string
}

// fingerprint is the comparable identity of one run's observable
// output: the emitted network, the full degradation trail, the basis
// arbitration record, the per-output cube counts, and the error (for
// injected-panic plans). Two runs with equal fingerprints are
// bit-identical as far as any caller of Synthesize can tell.
type fingerprint struct {
	blif    string
	degs    string
	choices string
	cubes   string
	err     string
}

// Sweep enumerates injection plans over bench circuits and checks the
// chaos invariants for every (circuit, plan, workers) triple. It
// returns all violations found; an empty slice is a passing sweep.
func Sweep(opt SweepOptions) []Violation {
	circuits := opt.Circuits
	if len(circuits) == 0 {
		circuits = []string{"f2", "cm82a", "adr4"}
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	var vs []Violation
	for _, name := range circuits {
		c, ok := bench.Resolve(name)
		if !ok {
			vs = append(vs, Violation{Circuit: name, Invariant: "setup", Detail: "unknown bench circuit"})
			continue
		}
		spec := c.Build()
		poNames := make([]string, len(spec.POs))
		for i := range spec.POs {
			poNames[i] = spec.POs[i].Name
		}
		plans := append(Plans(len(spec.POs)), RandomPlans(opt.RandomPlans, sweepSeed, len(spec.POs))...)

		// Uninjected baselines, one per (workers, method, basis) triple a
		// plan can run under. Their cross-worker identity is itself an
		// invariant.
		type bkey struct {
			workers    int
			ofddMethod bool
			basis      string
		}
		type combo struct {
			ofddMethod bool
			basis      string
		}
		combos := map[combo]bool{{false, ""}: true}
		var comboList []combo
		comboList = append(comboList, combo{false, ""})
		for _, p := range plans {
			cb := combo{p.UseOFDDMethod, p.Basis}
			if !combos[cb] {
				combos[cb] = true
				comboList = append(comboList, cb)
			}
		}
		base := map[bkey]outcome{}
		for _, w := range sweepWorkers {
			for _, cb := range comboList {
				out := runOne(c, Plan{Name: "baseline", Basis: cb.basis}, w, cb.ofddMethod)
				if out.escaped != "" {
					vs = append(vs, Violation{name, "baseline", w, "no-panic", out.escaped})
				}
				if out.err != "" {
					vs = append(vs, Violation{name, "baseline", w, "no-error", out.err})
				}
				if !out.equiv {
					vs = append(vs, Violation{name, "baseline", w, "equivalent", out.equivErr})
				}
				base[bkey{w, cb.ofddMethod, cb.basis}] = out
			}
		}
		for _, cb := range comboList {
			ref := base[bkey{sweepWorkers[0], cb.ofddMethod, cb.basis}].fp
			for _, w := range sweepWorkers[1:] {
				if base[bkey{w, cb.ofddMethod, cb.basis}].fp != ref {
					vs = append(vs, Violation{name, "baseline", w, "identical",
						fmt.Sprintf("baseline differs from -j%d baseline", sweepWorkers[0])})
				}
			}
		}

		for _, p := range plans {
			fps := make([]fingerprint, 0, len(sweepWorkers))
			for _, w := range sweepWorkers {
				out := runOne(c, p, w, p.UseOFDDMethod)
				logf("chaos: %s/%s/-j%d: err=%q degradations=%d", name, p.Name, w, out.err, len(out.degs))
				vs = append(vs, checkRun(name, p, w, poNames, out, base[bkey{w, p.UseOFDDMethod, p.Basis}])...)
				fps = append(fps, out.fp)
			}
			if p.ScheduleIndependent() {
				for i := 1; i < len(fps); i++ {
					if fps[i] != fps[0] {
						vs = append(vs, Violation{name, p.Name, sweepWorkers[i], "identical",
							fmt.Sprintf("result differs from -j%d run under the same injection schedule", sweepWorkers[0])})
					}
				}
			}
		}
	}
	return vs
}

// runOne executes one injected synthesis run and captures everything
// the invariants need. The specification is rebuilt per run, and the
// equivalence check uses a second fresh build on a fresh BDD manager —
// fully independent of anything the injected run touched.
func runOne(c bench.Circuit, p Plan, workers int, ofddMethod bool) (out outcome) {
	defer func() {
		if r := recover(); r != nil {
			out.escaped = fmt.Sprintf("%v", r)
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := core.DefaultOptions()
	opt.Workers = workers
	// "" pins the paper's pure GF(2) flow; a named basis overrides it.
	opt.Basis = core.BasisXor
	if p.Basis != "" {
		b, berr := core.ParseBasis(p.Basis)
		if berr != nil {
			out.err = berr.Error()
			out.fp = fingerprint{err: out.err}
			return out
		}
		opt.Basis = b
	}
	if ofddMethod {
		opt.Method = core.MethodOFDD
	}
	opt.Hooks = p.Hooks(cancel)
	spec := c.Build()
	res, err := core.Synthesize(ctx, spec, opt)
	if err != nil {
		out.err = err.Error()
		out.fp = fingerprint{err: out.err}
		return out
	}
	out.degs = res.Degradations
	out.choices = res.BasisChoices
	var blif strings.Builder
	if werr := res.Network.WriteBLIF(&blif); werr != nil {
		out.err = "WriteBLIF: " + werr.Error()
		return out
	}
	out.fp = fingerprint{
		blif:    blif.String(),
		degs:    fmt.Sprintf("%v", res.Degradations),
		choices: fmt.Sprintf("%v", res.BasisChoices),
		cubes:   fmt.Sprintf("%v", res.CubeCounts),
	}
	out.equiv, out.equivErr = checkEquivalent(c.Build(), res.Network)
	return out
}

func checkEquivalent(spec, got *network.Network) (bool, string) {
	ok, err := verify.Equivalent(spec, got)
	if err != nil {
		return false, err.Error()
	}
	if !ok {
		return false, "network not equivalent to specification"
	}
	return true, ""
}

// checkRun asserts the per-run chaos invariants against the uninjected
// baseline run at the same basis and returns any violations.
func checkRun(circuit string, p Plan, workers int, poNames []string, out, base outcome) []Violation {
	baseFP := base.fp
	var vs []Violation
	bad := func(invariant, detail string) {
		vs = append(vs, Violation{circuit, p.Name, workers, invariant, detail})
	}
	// Invariant 1: no panic escapes Synthesize, ever.
	if out.escaped != "" {
		bad("no-panic", out.escaped)
		return vs
	}
	// Injected panics are the one case Synthesize must fail: the error
	// must name the injected phase (or the fprm merge barrier, for
	// worker panics) and carry the chaos marker.
	if p.ExpectsError(xorOnly(p.Basis, base.choices, p.PanicOutput)) {
		if out.err == "" {
			bad("error-report", "injected panic produced no error")
			return vs
		}
		if !strings.Contains(out.err, Marker) {
			bad("error-report", "error does not carry the chaos marker: "+out.err)
		}
		if p.PanicAtPhase != "" && !strings.Contains(out.err, p.PanicAtPhase) {
			bad("error-report", fmt.Sprintf("error does not name phase %q: %s", p.PanicAtPhase, out.err))
		}
		if p.PanicWorker && !strings.Contains(out.err, "fprm") {
			bad("error-report", "worker panic not tagged with the fprm phase: "+out.err)
		}
		return vs
	}
	// Invariant: every non-panic injection still completes the run.
	if out.err != "" {
		bad("no-error", out.err)
		return vs
	}
	// Invariant 2: the returned network verifies equivalent.
	if !out.equiv {
		bad("equivalent", out.equivErr)
	}
	if !p.Injects() {
		return vs
	}
	if p.WorkerDelay > 0 && onlyDelay(p) {
		// A pure scheduling perturbation must be invisible.
		if out.fp != baseFP {
			bad("delay-identity", "delay injection changed the result")
		}
		return vs
	}
	// Arm-targeted faults: the run already proved it completed and
	// verified; the targeted cone must additionally have fallen to the
	// sibling arm (never the spec-cone ladder, which is reserved for
	// both arms failing) and the injection must be named on the
	// targeted output.
	if arm := p.TripArm + p.PanicArm; p.TripArm != "" || p.PanicArm != "" {
		sibling := "sop"
		if arm == "sop" {
			sibling = "xor"
		}
		if p.ArmOutput >= 0 && p.ArmOutput < len(poNames) {
			want := poNames[p.ArmOutput]
			var bc *core.BasisChoice
			for i := range out.choices {
				if out.choices[i].Output == want {
					bc = &out.choices[i]
					break
				}
			}
			switch {
			case bc == nil:
				bad("truthful", fmt.Sprintf("no basis choice recorded for targeted output %q", want))
			case bc.Chosen != sibling:
				bad("truthful", fmt.Sprintf("targeted output %q chose %q, want the sibling arm %q", want, bc.Chosen, sibling))
			}
			armed := false
			for _, d := range out.degs {
				if d.Output == want && d.Stage == arm+"-arm" && strings.Contains(d.Reason, Marker) {
					armed = true
				}
			}
			if !armed {
				bad("truthful", fmt.Sprintf("injected %s-arm fault on %q not attributed in degradations: %v", arm, want, out.degs))
			}
		}
		return vs
	}
	// Invariant 3: the injection is reported truthfully — either the
	// degradation trail names it (the chaos marker for injected trips,
	// the cancellation verdict for injected cancels), or the injection
	// never fired and the result is bit-identical to the baseline.
	visible := false
	for _, d := range out.degs {
		if strings.Contains(d.Reason, Marker) ||
			(p.CancelAtPhase != "" && strings.Contains(d.Reason, "canceled")) {
			visible = true
			break
		}
	}
	if !visible {
		if out.fp != baseFP {
			bad("truthful", fmt.Sprintf("injection changed the result but left no trace in %d degradations: %s",
				len(out.degs), fmt.Sprintf("%v", out.degs)))
		}
		return vs
	}
	// Targeted allocation failures must be attributed to the targeted
	// output, and only to it.
	if p.FailOFDDAlloc > 0 && p.OFDDOutput >= 0 && p.OFDDOutput < len(poNames) {
		want := poNames[p.OFDDOutput]
		for _, d := range out.degs {
			if strings.Contains(d.Reason, Marker) && d.Output != want {
				bad("truthful", fmt.Sprintf("injected trip for output %q attributed to %q: %+v", want, d.Output, d))
			}
		}
	}
	return vs
}

// xorOnly reports whether output oi's cone runs the GF(2) arm alone at
// the given basis: always on the pure GF(2) flow, never under sop or
// race (every cone has an SOP arm), and under auto when the baseline's
// predictor routed the cone to xor.
func xorOnly(basis string, choices []core.BasisChoice, oi int) bool {
	switch basis {
	case "", "xor":
		return true
	case "auto":
		return oi >= 0 && oi < len(choices) && choices[oi].Predicted == "xor"
	}
	return false
}

// onlyDelay reports whether the worker stagger is the plan's only
// injection, making bit-identity with the baseline mandatory.
func onlyDelay(p Plan) bool {
	q := p
	q.WorkerDelay = 0
	return !q.Injects()
}
