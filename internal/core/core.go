// Package core implements the paper's complete synthesis flow for
// arithmetic functions (Sections 2-4):
//
//  1. derive the FPRM form of every output from a ROBDD through the OFDD
//     (Section 2), optionally searching the polarity vector;
//  2. factor the form algebraically with the cube method or the OFDD
//     method, applying the Reduction/Factorization rules (Section 3);
//  3. emit a multilevel AND/OR/XOR network, sharing identical
//     subexpressions across outputs;
//  4. remove redundant XOR gates and AND fanins by pattern simulation
//     (Section 4);
//  5. merge functionally identical internal nodes across outputs (the
//     paper uses SIS "resub" for this step).
//
// The flow is specified by a gate network (any source: generated
// benchmark, parsed BLIF/PLA); its functional behaviour is preserved
// exactly: redundancy removal checks every rewrite with a BDD, and
// Options.Verify double-checks the shipped network.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/arbiter"
	"repro/internal/bdd"
	"repro/internal/budget"
	"repro/internal/cube"
	"repro/internal/factor"
	"repro/internal/fprm"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/ofdd"
	"repro/internal/redund"
	"repro/internal/sisbase"
	"repro/internal/techmap"
	"repro/internal/verify"
)

// ErrNotEquivalent reports that the safety-net equivalence check failed:
// the synthesized network does not match the specification. It indicates
// a bug in the flow, never a property of the input.
var ErrNotEquivalent = errors.New("synthesized network not equivalent to specification")

// Method selects the algebraic factorization algorithm of Section 3.
type Method int

// Factorization methods.
const (
	MethodCube Method = 1 // Method 1: factor the cube list directly
	MethodOFDD Method = 2 // Method 2: build the initial network from the OFDD
)

// String returns the method name used in flags, headers, and reports;
// the zero value is MethodCube.
func (m Method) String() string {
	switch m {
	case 0, MethodCube:
		return "cube"
	case MethodOFDD:
		return "ofdd"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// ParseMethod parses a method name or number ("cube" or "1", "ofdd" or
// "2"). The empty string means MethodCube (the DefaultOptions choice).
func ParseMethod(s string) (Method, error) {
	switch s {
	case "", "1", "cube":
		return MethodCube, nil
	case "2", "ofdd":
		return MethodOFDD, nil
	}
	return 0, fmt.Errorf("%w: unknown method %q (want cube|ofdd or 1|2)", ErrBadOptions, s)
}

// Polarity selects the FPRM polarity search strategy.
type Polarity int

// Polarity search strategies.
const (
	PolarityPositive   Polarity = iota // all-positive (PPRM)
	PolarityGreedy                     // coordinate-descent cube-count minimization
	PolarityExhaustive                 // all 2^n vectors (small inputs only)
)

// String returns the strategy name used in flags, headers, and reports.
func (p Polarity) String() string {
	switch p {
	case PolarityPositive:
		return "positive"
	case PolarityGreedy:
		return "greedy"
	case PolarityExhaustive:
		return "exhaustive"
	}
	return fmt.Sprintf("polarity(%d)", int(p))
}

// ParsePolarity parses a polarity strategy name. The empty string means
// PolarityGreedy (the DefaultOptions choice).
func ParsePolarity(s string) (Polarity, error) {
	switch s {
	case "", "greedy":
		return PolarityGreedy, nil
	case "positive":
		return PolarityPositive, nil
	case "exhaustive":
		return PolarityExhaustive, nil
	}
	return 0, fmt.Errorf("%w: unknown polarity %q (want positive|greedy|exhaustive)", ErrBadOptions, s)
}

// Basis selects which synthesis flow handles each output cone: the
// paper's GF(2) AND/XOR pipeline, the SIS-style AND/OR SOP baseline, a
// per-cone arbiter that predicts the winner from the spec BDD (hedging
// both flows when the structure is ambiguous), or a full race of both
// flows on every cone. All four run through the same arbiter pipeline;
// the zero value is BasisXor, its one-arm case.
type Basis int

// Basis selections.
const (
	// BasisXor runs the GF(2) FPRM flow on every cone (the paper's flow
	// and the zero value): the arbiter with one arm.
	BasisXor Basis = iota
	// BasisSop runs the SOP baseline flow on every cone.
	BasisSop
	// BasisAuto lets the per-cone predictor pick the arm; ambiguous cones
	// (its "hedge" verdict) run both arms and keep the better verified
	// result.
	BasisAuto
	// BasisRace runs both arms on every cone and additionally arbitrates
	// the final hybrid against the pure-XOR and pure-SOP assemblies, so
	// the result is never worse (in literals, then gates) than either.
	BasisRace
)

// String returns the lower-case basis name used in flags, headers, and
// reports.
func (b Basis) String() string {
	switch b {
	case BasisXor:
		return "xor"
	case BasisSop:
		return "sop"
	case BasisAuto:
		return "auto"
	case BasisRace:
		return "race"
	}
	return fmt.Sprintf("basis(%d)", int(b))
}

// ParseBasis parses a -basis flag / X-Rmsynd-Basis header value. The
// empty string means BasisAuto (the DefaultOptions choice).
func ParseBasis(s string) (Basis, error) {
	switch s {
	case "", "auto":
		return BasisAuto, nil
	case "xor":
		return BasisXor, nil
	case "sop":
		return BasisSop, nil
	case "race":
		return BasisRace, nil
	}
	return 0, fmt.Errorf("%w: unknown basis %q (want auto, xor, sop, or race)", ErrBadOptions, s)
}

// Options configure the synthesis flow. The zero value is the pure
// GF(2) flow at positive polarity, without the reduction rules,
// redundancy removal or verification; DefaultOptions is the paper's
// flow.
type Options struct {
	Method   Method   // 0 = MethodCube (Method 1 with the divisor registry)
	Polarity Polarity // polarity search strategy
	// Rules applies the Section 3 reduction rules during factorization.
	// On by default through DefaultOptions.
	Rules bool
	// Redund runs the Section 4 redundancy removal.
	Redund bool
	// Verify checks the network Synthesize returns against the
	// specification — the arbitration's winner or the cleaned
	// specification do-no-harm preferred: by BDD in the final verify
	// stage, by simulation on the swept-spec rung. Redundancy removal
	// checks each of its rewrites exactly either way (see package
	// redund).
	Verify bool
	// Basis selects the per-cone flow (see Basis). The zero value is
	// BasisXor, the pure GF(2) flow; DefaultOptions selects BasisAuto.
	Basis Basis

	// Resource budget (0 = unlimited). The wall-clock deadline comes from
	// the context passed to Synthesize. When a budget is exhausted the
	// flow degrades per output down the ladder — polarity search →
	// all-positive polarity → Method 1 → OFDD method → structural copy of
	// the specification cone — and Result.Degradations records every
	// fallback that fired; the returned network is always verified
	// equivalent (Options.Verify).
	MaxBDDNodes  int   // cap on the shared ROBDD manager's node count
	MaxOFDDNodes int   // cap on each per-output OFDD manager's node count
	MaxCubes     int64 // cap on materialized FPRM cubes per output
	MaxSteps     int64 // cap on total recursion work steps across the run

	// Workers bounds the derivation fan-out: the per-output fprm phase
	// (OFDD build, FPRM extraction, polarity search) runs on a pool of
	// this many workers, each with its own OFDD manager, against the
	// shared read-only specification BDDs and one race-safe budget.
	// 0 means runtime.GOMAXPROCS(0); 1 runs the phase sequentially.
	// The synthesized network is bit-identical for every worker count:
	// each output's derivation is independent and results merge into
	// per-output slots in output order. The factor/emit phases stay
	// sequential (they share the emitter and divisor registries).
	Workers int

	// RetryFactor configures the budgeted-retry rung of the ladder: an
	// output whose derivation or factoring trips a transient per-phase
	// cap (BDD/OFDD nodes, cubes — never a spent deadline, cancellation,
	// or step budget) is retried once on a fresh budget slice with every
	// cap scaled by this factor, before falling back to the structural
	// spec-cone copy. The attempt is recorded in Degradations as
	// stage → "retry", and a failed retry as "retry" → "spec-cone".
	// 0 disables the rung; DefaultOptions uses 2. The retry slice keeps
	// the run's deadline, so a retry can add at most RetryFactor× one
	// output's capped work, never unbounded time.
	RetryFactor float64

	// Hooks carries the deterministic fault-injection probe points used
	// by the chaos harness (package internal/chaos) to force every rung
	// of the ladder in tests. Nil in production; every probe site then
	// degenerates to a nil check.
	Hooks *ProbeHooks

	// Obs, when non-nil, collects pipeline metrics (unique/computed-table
	// hit rates, polarity-search progress, factor rule applications) into
	// the collector; Result.ObsStats holds the final snapshot. Nil (the
	// default) compiles every probe down to a single nil check — the same
	// zero-overhead contract as Hooks. All counters are schedule-
	// independent: a run's totals are identical at any Workers setting.
	Obs *obs.Collector
}

// ProbeHooks are the fault-injection probe points threaded through one
// synthesis run. All fields are optional. Hooks observe or perturb the
// flow (panic, context cancel, injected budget trips, delays); the
// chaos harness asserts that no perturbation can make Synthesize panic,
// return an unverified network, or misreport its degradations.
type ProbeHooks struct {
	// BudgetStep is installed on the run's budget via SetStepHook: it
	// sees every counted work step and can trip the budget with an
	// injected *budget.Err. It is not inherited by retry-rung budget
	// slices (a transient injected trip is exactly what the retry rung
	// is meant to absorb); target retries through OFDDAlloc instead.
	BudgetStep budget.StepHook
	// BudgetPoll is installed on the run's budget via SetPollHook: it
	// sees every graceful Exceeded poll (polarity search, phase
	// pre-checks) and can make the budget report injected exhaustion.
	// Poll trips are sticky — the way to force the best-so-far rung,
	// which only ever polls.
	BudgetPoll budget.PollHook
	// BDDAlloc is installed on the shared specification BDD manager,
	// which only grows during the sequential phases (spec-bdd, factor,
	// redund, merge), so its allocation numbering is deterministic at
	// any worker count.
	BDDAlloc func(nodes int) *budget.Err
	// OFDDAlloc returns the allocation probe for one output's
	// derivation OFDD manager (nil = no probe). Managers are
	// per-output, so the probe's numbering is deterministic at any
	// worker count. The factory is invoked once per derivation attempt
	// — the retry rung's second attempt calls it again — letting a plan
	// model both transient faults (fail the first attempt only) and
	// persistent ones (fail every attempt).
	OFDDAlloc func(output int) func(nodes int) *budget.Err
	// FactorOFDDAlloc returns an allocation probe for one factor-phase
	// OFDD manager. The factory is invoked once per context creation —
	// the shared per-polarity contexts of the first attempt and the
	// fresh one-shot contexts of each retry — so a plan can model a
	// transient fault that only the retry escapes.
	FactorOFDDAlloc func() func(nodes int) *budget.Err
	// Phase is called on entry to every pipeline phase ("setup",
	// "spec-bdd", "predict" under BasisAuto, "fprm", "factor", "emit",
	// "select", "do-no-harm-prep", "redund", "merge", "cleanup",
	// "verify"). A panic here exercises the residual
	// recover boundary; canceling the run's context exercises the ladder.
	Phase func(name string)
	// Arm is called at the start of each per-cone basis arm ("xor" or
	// "sop") with the output index, inside the worker goroutine and that
	// arm's containment boundary. Injected delays there must not change
	// the merged result. When the cone has a sibling arm, a panic or
	// injected *budget.Err trip here is absorbed as that arm's failure
	// and the sibling's verified result is kept — not the spec-cone
	// ladder; a lone GF(2) arm's panic is re-raised after the merge.
	Arm func(basis string, output int)
}

// DefaultOptions returns the paper's flow: cube-method factorization with
// rules (our Method 1 with the cross-output divisor registry outperforms
// Method 2 — the opposite of the paper's mild preference; both are
// available), greedy polarity search, and redundancy removal with exact
// verification. Cross-output node merging runs under every option set.
func DefaultOptions() Options {
	return Options{
		Method:      MethodCube,
		Polarity:    PolarityGreedy,
		Rules:       true,
		Redund:      true,
		Verify:      true,
		RetryFactor: 2,
		Basis:       BasisAuto,
	}
}

// ErrBadOptions reports option values that cannot mean anything
// sensible — negative worker counts, NaN retry factors, unknown method
// or polarity enums. Synthesize rejects them up front: the server feeds
// Options from untrusted request headers, and silent misbehaviour
// (a NaN scaling every retry budget to garbage) is strictly worse than
// an explicit error.
var ErrBadOptions = errors.New("core: invalid options")

// maxWorkersSanity is far above any real machine; a Workers beyond it
// is a unit confusion or an attack, not a configuration.
const maxWorkersSanity = 1 << 14

// maxRetryFactorSanity bounds the retry budget scale; the ladder's one
// retry at 64x an already-generous budget is as far as "transient"
// stretches.
const maxRetryFactorSanity = 64

// Validate checks the options for values Synthesize refuses to run
// with. The zero value and DefaultOptions always validate.
func (o Options) Validate() error {
	if o.Workers < 0 || o.Workers > maxWorkersSanity {
		return fmt.Errorf("%w: Workers %d out of range [0, %d]", ErrBadOptions, o.Workers, maxWorkersSanity)
	}
	if math.IsNaN(o.RetryFactor) || math.IsInf(o.RetryFactor, 0) {
		return fmt.Errorf("%w: RetryFactor must be finite", ErrBadOptions)
	}
	if o.RetryFactor < 0 || o.RetryFactor > maxRetryFactorSanity {
		return fmt.Errorf("%w: RetryFactor %g out of range [0, %d]", ErrBadOptions, o.RetryFactor, maxRetryFactorSanity)
	}
	switch o.Method {
	case 0, MethodCube, MethodOFDD:
	default:
		return fmt.Errorf("%w: unknown Method %d", ErrBadOptions, o.Method)
	}
	switch o.Polarity {
	case PolarityPositive, PolarityGreedy, PolarityExhaustive:
	default:
		return fmt.Errorf("%w: unknown Polarity %d", ErrBadOptions, o.Polarity)
	}
	switch o.Basis {
	case BasisXor, BasisSop, BasisAuto, BasisRace:
	default:
		return fmt.Errorf("%w: unknown Basis %d", ErrBadOptions, o.Basis)
	}
	if o.MaxBDDNodes < 0 || o.MaxOFDDNodes < 0 || o.MaxCubes < 0 || o.MaxSteps < 0 {
		return fmt.Errorf("%w: negative resource budget (use 0 for unlimited)", ErrBadOptions)
	}
	return nil
}

func (o Options) method() Method {
	if o.Method == 0 {
		return MethodCube
	}
	return o.Method
}

// Size limits of the GF(2) arm.
const (
	// cubeMethodLimit bounds cube lists factored with Method 1; larger
	// outputs use the OFDD method, whose cost follows the (often tiny)
	// decision-diagram size rather than the cube count.
	cubeMethodLimit = 2000
	// searchCubeLimit bounds cube lists eligible for polarity search.
	searchCubeLimit = 2000
	// exhaustiveLimit caps exhaustive polarity search (inputs).
	exhaustiveLimit = 10
)

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Degradation records one fallback step of the graceful-degradation
// ladder: which output was affected (the PO name, or "*" for a
// network-wide step), which pipeline stage hit its budget, what was used
// instead, and why.
type Degradation struct {
	Output   string `json:"output"`   // PO name, or "*" for the whole network
	Stage    string `json:"stage"`    // pipeline stage: "spec-bdd", "predict", "fprm", "polarity-search", "cube-method", "factor", "retry", "xor-arm", "sop-arm", "redund", "merge", "do-no-harm"
	Fallback string `json:"fallback"` // what ran instead: "swept-spec", "spec-cone", "best-so-far", "ofdd-method", "skipped", "partial", "retry", "xor-arm", "sop-arm"
	Reason   string `json:"reason"`   // the budget error or condition that triggered it
}

// PhaseTime records the wall-clock time of one pipeline phase. Elapsed
// encodes as integer nanoseconds.
type PhaseTime struct {
	Name    string        `json:"name"` // "spec-bdd", "predict", "fprm", "factor", "emit", "select", "redund", "merge", "cleanup", "verify"
	Elapsed time.Duration `json:"elapsed_ns"`
}

// OutputSpan records one output's derivation span inside the parallel
// fprm phase, restoring the per-worker attribution the aggregate
// PhaseTimes entry loses. Spans are merged in output order, so the
// slice's structure (outputs, indices) is identical at any worker
// count; Worker and Elapsed are the only schedule-dependent fields.
type OutputSpan struct {
	Output  string        `json:"output"`     // PO name
	Index   int           `json:"index"`      // output index
	Worker  int           `json:"worker"`     // worker that ran the derivation
	Elapsed time.Duration `json:"elapsed_ns"` // wall-clock time of this output's derivation
}

// BasisChoice records how one output cone was routed through the basis
// arbiter: what the predictor said, which arm's result was kept, and the
// literal cost of each arm (-1 when an arm did not run or failed). A
// final entry with Output "*" records the network-level arbitration
// between the hybrid and the pure single-basis assemblies, whenever more
// than one distinct candidate was available. All fields are
// deterministic at any worker count.
type BasisChoice struct {
	Output    string `json:"output"`           // PO name, or "*" for the network-level arbitration
	Predicted string `json:"predicted"`        // "xor", "sop", "hedge", "forced"; the basis name for "*"
	Chosen    string `json:"chosen"`           // "xor", "sop", "spec-cone"; candidate name for "*"
	XorLits   int    `json:"xor_lits"`         // literal cost of the GF(2) arm (-1 absent/failed)
	SopLits   int    `json:"sop_lits"`         // literal cost of the SOP arm (-1 absent/failed)
	Reason    string `json:"reason,omitempty"` // predictor reason, or the failure that forced the choice
}

// Result is the outcome of a synthesis run.
type Result struct {
	Network *network.Network
	Forms   []*fprm.Form // per-output FPRM forms (sampled when huge)
	Stats   network.Stats
	Redund  redund.Result
	// PhaseTimes records per-phase wall-clock times in execution order.
	PhaseTimes []PhaseTime
	// OutputTimes records per-output derivation spans of the fprm phase,
	// in output order (see OutputSpan).
	OutputTimes []OutputSpan
	// Workers is the derivation worker count the fprm phase ran with.
	Workers int
	// Fallback reports that the specification was shipped instead of a
	// synthesized network: the FPRM result was larger than the (hashed,
	// merged, cleaned) specification — the do-no-harm rung for functions
	// with unmanageable FPRM forms, the limitation Section 6 of the paper
	// states — or the budget ran out before the flow could start (the
	// swept-spec rung).
	Fallback bool
	// Degradations lists every fallback the graceful-degradation ladder
	// took, in the order they fired. Empty for a fully unconstrained run.
	Degradations []Degradation
	// Basis is the flow basis the run executed with ("xor", "sop",
	// "auto", "race").
	Basis string
	// BasisChoices records the per-cone basis arbitration, in output
	// order (see BasisChoice); nil for a swept-spec run.
	BasisChoices []BasisChoice
	// CubeCounts holds the exact FPRM cube count per output.
	CubeCounts []int64
	// ObsStats is the observability snapshot; nil unless Options.Obs was
	// set.
	ObsStats *obs.Stats
	// BudgetSteps and BudgetPolls are the run budget's counted work steps
	// and graceful exhaustion polls.
	BudgetSteps int64
	BudgetPolls int64
	// Elapsed is the synthesis wall-clock time.
	Elapsed time.Duration
}

// FallbackReport renders the degradation ladder's activity as one line
// per fallback, or "" when nothing degraded.
func (r *Result) FallbackReport() string {
	if len(r.Degradations) == 0 {
		return ""
	}
	var b strings.Builder
	for _, d := range r.Degradations {
		fmt.Fprintf(&b, "output %s: %s -> %s (%s)\n", d.Output, d.Stage, d.Fallback, d.Reason)
	}
	return b.String()
}

// Synthesize runs the full flow on the functional specification given as a
// gate network and returns a new, functionally equivalent network.
//
// The context carries the wall-clock deadline and cancellation; together
// with the Max* fields of Options it forms the run's resource budget.
// Budget exhaustion never fails the call: the flow degrades per output
// (see Options and Result.Degradations) and still returns an equivalent
// network — at worst a swept structural copy of the specification. With
// Options.Verify the returned network is the one the verify stage
// checked, and a mismatch fails the call with ErrNotEquivalent. A nil
// ctx is treated as context.Background().
func Synthesize(ctx context.Context, spec *network.Network, opt Options) (res *Result, err error) {
	if verr := opt.Validate(); verr != nil {
		return nil, verr
	}
	r := &run{ctx: ctx, spec: spec, opt: opt, start: time.Now(), res: &Result{Basis: opt.Basis.String()}}
	// Single residual-panic boundary: anything that escapes the per-phase
	// budget.Guard wrappers (a genuine bug) is turned into a phase-tagged
	// error instead of killing the process.
	defer func() {
		if p := recover(); p != nil {
			res = nil
			if be, ok := p.(*budget.Err); ok {
				err = fmt.Errorf("core: unguarded budget trip in %s: %w", r.phase, be)
				return
			}
			err = fmt.Errorf("core: internal panic in %s: %v", r.phase, p)
		}
	}()
	net, err := r.flow()
	if err != nil {
		return nil, err
	}
	return r.finalize(net), nil
}

// flow runs the stages in order and returns the network to ship: the
// arbitration's winner, the cleaned specification when do-no-harm
// prefers it, or the swept specification of the ladder's bottom rung.
// The verify stage checks that network, after do-no-harm has chosen.
func (r *run) flow() (*network.Network, error) {
	opt := r.opt
	r.enter("setup")
	r.bud = budget.New(r.ctx, budget.Limits{
		BDDNodes:  opt.MaxBDDNodes,
		OFDDNodes: opt.MaxOFDDNodes,
		Cubes:     opt.MaxCubes,
		Steps:     opt.MaxSteps,
	})
	if opt.Hooks != nil && opt.Hooks.BudgetStep != nil {
		r.bud.SetStepHook(opt.Hooks.BudgetStep)
	}
	if opt.Hooks != nil && opt.Hooks.BudgetPoll != nil {
		r.bud.SetPollHook(opt.Hooks.BudgetPoll)
	}
	if perr := r.bud.Exceeded(); perr != nil {
		// Deadline already expired (or context canceled) before any work:
		// bottom of the ladder immediately.
		degrade(&r.res.Degradations, "*", "spec-bdd", "swept-spec", perr.Error())
		return r.sweptSpec()
	}
	r.mark = time.Now()

	var specErr error
	r.stage("spec-bdd", func() { specErr = r.buildSpec() })
	if specErr != nil {
		// Cannot even build the specification BDDs within budget: the
		// whole flow is out of reach, ship the swept spec.
		return r.sweptSpec()
	}
	r.route()
	r.stage("fprm", r.deriveArms)
	r.stage("factor", r.factor)
	r.stage("emit", r.emit)
	r.stage("select", r.selectArms)
	// The do-no-harm reference is prepared before the candidates are
	// polished: a candidate already far larger than the cleaned spec
	// skips redundancy removal. The phase is entered (boundary tag,
	// chaos probe) but not timed on its own; its time is charged to the
	// first candidate's redund entry.
	r.enter("do-no-harm-prep")
	r.prepareReference()
	for i := range r.cands {
		if r.cands[i].dup < 0 {
			r.polish(&r.cands[i])
		}
	}
	net := r.doNoHarm(r.arbitrate())
	if opt.Verify {
		var verr error
		r.stage("verify", func() { verr = r.verify(net) })
		if verr != nil {
			return nil, verr
		}
	}
	return net, nil
}

// run is the state of one synthesis run. flow threads it through the
// named stages — spec-bdd, predict (BasisAuto), fprm, factor, emit,
// select, then redund/merge/cleanup per candidate, and verify — and
// every network it ships, the swept-spec bottom rung included, leaves
// through finalize.
type run struct {
	ctx   context.Context
	spec  *network.Network
	opt   Options
	res   *Result
	start time.Time
	phase string    // the entered stage, for the residual-panic boundary
	mark  time.Time // start of the current PhaseTimes span

	bud   *budget.Budget
	bm    *bdd.Manager // shared specification manager
	outs  []bdd.Ref    // specification BDD per output
	cones []cone

	order []int // outputs by ascending FPRM cube count

	net     *network.Network // emitter network holding the GF(2) arm cones
	cands   []candidate
	specOpt *network.Network // do-no-harm reference
}

// cone is one output's routing and arm state. The derivation workers
// write only their own cone, and the two arms of a cone write disjoint
// fields.
type cone struct {
	name             string
	xor, sop         bool   // arms the router assigned
	predicted, why   string // predictor verdict ("forced" when the basis decides) and reason
	xorFail, sopFail string // contained arm failures: the sibling arm covers the cone
	specCone         bool   // the GF(2) arm fell down the ladder to the spec-cone copy
	sopRes           *sisbase.Result
	expr             *factor.Expr
	root             int  // GF(2) arm root in the emitter network
	emitted          bool // root holds a real GF(2) arm result
	degs             []Degradation
	residual         any // an uncontained derivation panic, re-raised after the merge
}

// Per-cone arm choices of the basis arbiter.
const (
	chXor  = iota // the GF(2) arm's emitted cone
	chSop         // the SOP arm's verified cone
	chSpec        // the structural spec-cone copy (every arm failed)
)

// choiceNames are the BasisChoice.Chosen names of the arm choices.
var choiceNames = [...]string{chXor: "xor", chSop: "sop", chSpec: "spec-cone"}

// candidate is one assembled network of the final arbitration.
type candidate struct {
	name              string // "hybrid", "xor", or "sop"
	vec               []int  // per-cone arm choice
	dup               int    // index of an identical earlier candidate, else -1
	net               *network.Network
	stats             network.Stats
	redund            redund.Result
	degs              []Degradation // ladder entries of the candidate's polish
	mapGates, mapLits int
}

// enter tags the residual-panic boundary and fires the chaos phase
// probe; with no hooks installed it is a plain assignment.
func (r *run) enter(name string) {
	r.phase = name
	if r.opt.Hooks != nil && r.opt.Hooks.Phase != nil {
		r.opt.Hooks.Phase(name)
	}
}

// stage runs fn as one named pipeline phase: it tags the residual-panic
// boundary, fires the chaos phase probe, and appends the time since the
// previous stage ended to Result.PhaseTimes. Inside a stage, guard runs
// each budgeted step and records a trip as one ladder entry.
func (r *run) stage(name string, fn func()) {
	r.enter(name)
	fn()
	r.res.PhaseTimes = append(r.res.PhaseTimes, PhaseTime{Name: name, Elapsed: time.Since(r.mark)})
	r.mark = time.Now()
}

// degrade appends one ladder entry to trail: the run's own, a cone's
// derivation slot, or a candidate's polish entries.
func degrade(trail *[]Degradation, output, stage, fallback, reason string) {
	*trail = append(*trail, Degradation{Output: output, Stage: stage, Fallback: fallback, Reason: reason})
}

// guard runs fn under budget.Guard; a trip is recorded on trail as
// output's stage → fallback entry and returned.
func guard(trail *[]Degradation, output, stage, fallback string, fn func()) error {
	err := budget.Guard(fn)
	if err != nil {
		degrade(trail, output, stage, fallback, err.Error())
	}
	return err
}

// finalize is the run's single exit: it installs the shipped network
// with its stats and snapshots the budget counters, the observability
// collector, and the elapsed time.
func (r *run) finalize(net *network.Network) *Result {
	res := r.res
	res.Network, res.Stats = net, net.CollectStats()
	res.BudgetSteps = r.bud.Steps()
	res.BudgetPolls = r.bud.Polls()
	if r.opt.Obs != nil {
		snap := r.opt.Obs.Snapshot()
		res.ObsStats = &snap
	}
	res.Elapsed = time.Since(r.start)
	return res
}

// simVectors is the random-vector count of the swept-spec rung's
// simulation check past verify.Simulate's exhaustive range.
const simVectors = 4096

// sweptSpec is the bottom rung of the degradation ladder: the budget
// was exhausted before the flow could start (or the specification BDDs
// blew it), so it ships a swept structural copy of the specification.
// Strash preserves the function by construction; when Verify is on this
// is double-checked by simulation, since the BDD route is exactly what
// just exceeded its budget.
func (r *run) sweptSpec() (*network.Network, error) {
	net := r.spec.Clone()
	net.Name = r.spec.Name + "_rm"
	net.Strash()
	net.Compact()
	if r.opt.Verify {
		ok, err := verify.Simulate(r.spec, net, simVectors)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("core: fallback network: %w", ErrNotEquivalent)
		}
	}
	r.res.Fallback = true
	return net, nil
}

// buildSpec builds the specification BDDs on the shared manager; a
// budget trip is the network-wide spec-bdd → swept-spec rung.
func (r *run) buildSpec() error {
	r.bm = bdd.New(r.spec.NumPIs())
	r.bm.SetBudget(r.bud)
	r.bm.SetStats(r.opt.Obs.BDD())
	if r.opt.Hooks != nil && r.opt.Hooks.BDDAlloc != nil {
		r.bm.SetAllocHook(r.opt.Hooks.BDDAlloc)
	}
	return guard(&r.res.Degradations, "*", "spec-bdd", "swept-spec", func() { r.outs = r.spec.ToBDDs(r.bm) })
}

// route assigns each output cone its arms (see Basis): the GF(2) arm
// alone, the SOP arm alone, both under every cone, or — under
// BasisAuto — what the predictor says. The predict phase is sequential
// and read-only on the shared BDD manager, so its decisions are
// bit-identical at any worker count.
func (r *run) route() {
	r.cones = make([]cone, len(r.outs))
	for oi := range r.cones {
		c := &r.cones[oi]
		c.name = r.spec.POs[oi].Name
		c.predicted = "forced"
		c.xor = r.opt.Basis != BasisSop
		c.sop = r.opt.Basis == BasisSop || r.opt.Basis == BasisRace
	}
	if r.opt.Basis == BasisAuto {
		r.stage("predict", r.predict)
	}
}

// predict routes every cone by the arbiter's structural predictor. A
// cone whose prediction cannot run within budget takes the paper's flow.
func (r *run) predict() {
	for oi := range r.cones {
		c := &r.cones[oi]
		if perr := r.bud.Exceeded(); perr != nil {
			c.xor, c.sop = true, false
			c.predicted, c.why = "xor", "predict skipped: "+perr.Error()
			degrade(&r.res.Degradations, c.name, "predict", "xor-arm", perr.Error())
			continue
		}
		var p arbiter.Prediction
		if gerr := guard(&r.res.Degradations, c.name, "predict", "xor-arm", func() {
			p = arbiter.Predict(r.bm, r.outs[oi])
		}); gerr != nil {
			c.xor, c.sop = true, false
			c.predicted, c.why = "xor", "predict failed: "+gerr.Error()
			continue
		}
		c.predicted, c.why = p.Decision.String(), p.Why
		c.xor = p.Decision != arbiter.Sop
		c.sop = p.Decision != arbiter.Xor
		r.opt.Obs.Arbiter().Prediction(c.predicted)
	}
}

// armJob is one arm of one cone on the derivation worker pool.
type armJob struct {
	sop bool
	oi  int
}

// deriveArms is the parallel fan-out of the flow: every cone's GF(2)
// derivation (OFDD, FPRM extraction, polarity search) and SOP arm. The
// paper's derivation is independent per output (each gets its own OFDD
// manager; the shared specification BDDs are read-only after ToBDDs,
// and the one budget is race-safe), so the arms run on a bounded worker
// pool. A cone routed to both arms runs each to completion on the run
// budget. Results land in per-cone slots and merge in output order, so
// the network is bit-identical for every worker count.
func (r *run) deriveArms() {
	nOut, nPI := len(r.cones), r.spec.NumPIs()
	res := r.res
	r.opt.Obs.StartOutputs(nOut)
	res.Forms = make([]*fprm.Form, nOut)
	res.CubeCounts = make([]int64, nOut)
	res.OutputTimes = make([]OutputSpan, nOut)
	jobs := make([]armJob, 0, nOut)
	for oi := range r.cones {
		c := &r.cones[oi]
		if c.xor && c.sop {
			r.opt.Obs.Arbiter().BothArms()
		}
		if c.xor {
			jobs = append(jobs, armJob{sop: false, oi: oi})
		} else {
			// SOP-only cone: the GF(2) slots stay empty (factoring skips
			// the cone; redundancy removal sees an empty form).
			res.Forms[oi] = fprm.NewForm(nPI, nil)
			res.CubeCounts[oi] = -1
		}
		if c.sop {
			jobs = append(jobs, armJob{sop: true, oi: oi})
		}
	}
	workers := max(min(r.opt.workers(), len(jobs)), 1)
	res.Workers = workers
	runJob := func(w int, j armJob) {
		if j.sop {
			r.deriveSop(w, j.oi)
		} else {
			r.deriveXor(w, j.oi)
		}
	}
	if workers == 1 {
		for _, j := range jobs {
			runJob(0, j)
		}
	} else {
		ch := make(chan armJob)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := range ch {
					runJob(w, j)
				}
			}(w)
		}
		for _, j := range jobs {
			ch <- j
		}
		close(ch)
		wg.Wait()
	}
	// Deterministic merge: degradations in output order; a residual
	// panic (a bug, not a budget trip) re-raises into the boundary above.
	for oi := range r.cones {
		c := &r.cones[oi]
		if c.residual != nil {
			panic(c.residual)
		}
		res.Degradations = append(res.Degradations, c.degs...)
	}
	// Record each output's final form size sequentially after the merge
	// barrier — one deterministic writer per Search group.
	for oi := range r.cones {
		if r.cones[oi].gf2Ready() {
			f := res.Forms[oi]
			r.opt.Obs.Output(oi).SetBest(f.Cubes.Len(), listLits(f.Cubes))
		}
	}
}

// armFailure renders a recovered arm panic as its failure reason.
func armFailure(p any) string {
	if be, ok := p.(*budget.Err); ok {
		return be.Error()
	}
	return fmt.Sprintf("panic: %v", p)
}

// deriveXor runs one cone's GF(2) arm: the FPRM derivation under the
// run budget, with the budgeted-retry rung. A failure goes to
// the sibling SOP arm when the cone has one, else down the spec-cone
// ladder.
func (r *run) deriveXor(w, oi int) {
	c := &r.cones[oi]
	nPI := r.spec.NumPIs()
	contained := c.sop // a sibling arm exists to absorb failures
	spanStart := time.Now()
	// Residual (non-budget) panics cannot cross the goroutine boundary to
	// Synthesize's recover; capture them here and re-raise on the main
	// goroutine after the merge barrier — unless a sibling SOP arm
	// exists, in which case the panic is this arm's contained failure.
	defer func() {
		if p := recover(); p != nil {
			if !contained {
				c.residual = p
			} else {
				c.xorFail = armFailure(p)
				r.res.Forms[oi] = fprm.NewForm(nPI, nil)
				r.res.CubeCounts[oi] = -1
			}
		}
		r.res.OutputTimes[oi] = OutputSpan{Output: c.name, Index: oi, Worker: w, Elapsed: time.Since(spanStart)}
	}()
	if r.opt.Hooks != nil && r.opt.Hooks.Arm != nil {
		r.opt.Hooks.Arm("xor", oi)
	}
	fail := func(stage, reason string) {
		r.res.Forms[oi] = fprm.NewForm(nPI, nil)
		r.res.CubeCounts[oi] = -1
		if contained {
			c.xorFail = reason
			return
		}
		c.specCone = true
		degrade(&c.degs, c.name, stage, "spec-cone", reason)
	}
	if perr := r.bud.Exceeded(); perr != nil {
		fail("fprm", perr.Error())
		return
	}
	ofddHook := func() func(nodes int) *budget.Err {
		if r.opt.Hooks != nil && r.opt.Hooks.OFDDAlloc != nil {
			return r.opt.Hooks.OFDDAlloc(oi)
		}
		return nil
	}
	var form *fprm.Form
	var count int64
	var isHuge, searchCut bool
	derive := func(bud *budget.Budget, relax float64) error {
		return budget.Guard(func() {
			form, count, isHuge, searchCut = deriveForm(r.bm, r.outs[oi], r.opt, bud, relax, ofddHook(), r.opt.Obs.Output(oi))
		})
	}
	reason := func(err error) string {
		if err != nil {
			return err.Error()
		}
		return "OFDD node cap exceeded"
	}
	if gerr := derive(r.bud, 1); gerr != nil || isHuge {
		if r.opt.RetryFactor <= 0 || !retryableTrip(gerr, isHuge) {
			fail("fprm", reason(gerr))
			return
		}
		// Budgeted-retry rung: a transient per-phase cap trip gets one
		// retry on a relaxed budget slice before the output falls all
		// the way to the spec-cone copy.
		degrade(&c.degs, c.name, "fprm", "retry", reason(gerr))
		if rerr := derive(r.bud.Relaxed(r.opt.RetryFactor), r.opt.RetryFactor); rerr != nil || isHuge {
			fail("retry", reason(rerr))
			return
		}
	}
	if searchCut {
		degrade(&c.degs, c.name, "polarity-search", "best-so-far", "budget exhausted during polarity search")
	}
	r.res.Forms[oi] = form
	r.res.CubeCounts[oi] = count
}

// deriveSop runs one cone's SOP arm: the SIS-style script on the
// extracted spec cone, under the run's budget and context. All
// failures are contained — the GF(2) arm or the spec-cone ladder covers
// the cone — and the result is verified against the spec BDD at
// selection time before it can win.
func (r *run) deriveSop(w, oi int) {
	c := &r.cones[oi]
	spanStart := time.Now()
	defer func() {
		if p := recover(); p != nil {
			c.sopFail = armFailure(p)
		}
		if !c.xor {
			r.res.OutputTimes[oi] = OutputSpan{Output: c.name, Index: oi, Worker: w, Elapsed: time.Since(spanStart)}
		}
	}()
	if r.opt.Hooks != nil && r.opt.Hooks.Arm != nil {
		r.opt.Hooks.Arm("sop", oi)
	}
	if perr := r.bud.Exceeded(); perr != nil {
		c.sopFail = perr.Error()
		return
	}
	sr, err := sisbase.RunCone(r.ctx, r.spec, oi, r.bud)
	if err != nil {
		c.sopFail = err.Error()
		return
	}
	c.sopRes = sr
}

// gf2Ready reports whether a cone has a GF(2) arm result to factor and
// emit.
func (c *cone) gf2Ready() bool { return c.xor && !c.specCone && c.xorFail == "" }

// factor factors every GF(2) arm result. Outputs go smallest-first so
// the divisor registry is populated bottom-up (an adder's c₁ is
// registered before c₂ needs it). Factoring contexts are shared across
// outputs with the same polarity vector (registry cube lists live in
// literal space, which only matches between identical vectors) — the
// cross-output subfunction reuse the paper obtains with SIS resub.
func (r *run) factor() {
	res, bud, opt := r.res, r.bud, r.opt
	r.order = make([]int, len(r.cones))
	for i := range r.order {
		r.order[i] = i
	}
	sort.SliceStable(r.order, func(a, b int) bool {
		return res.CubeCounts[r.order[a]] < res.CubeCounts[r.order[b]]
	})
	fopt := factor.Options{ApplyRules: opt.Rules, Budget: bud, Obs: opt.Obs.Factor()}
	cubeCtxs := make(map[string]*factor.Context)
	ofddCtxs := make(map[string]*factor.OFDDContext)
	cubeMethodCap := effectiveCap(cubeMethodLimit, bud.Limits().Cubes)
	nPI := r.spec.NumPIs()
	for _, oi := range r.order {
		c := &r.cones[oi]
		if !c.gf2Ready() {
			continue // no GF(2) arm result to factor; covered at selection
		}
		if perr := bud.Exceeded(); perr != nil {
			c.specCone = true
			degrade(&res.Degradations, c.name, "factor", "spec-cone", perr.Error())
			continue
		}
		form := res.Forms[oi]
		key := polKey(form.Polarity)
		// Over-cap cube lists must never feed the cube method (a sampled
		// list would synthesize the wrong function); they route to the
		// OFDD method, which factors the exact decision diagram.
		useCube := opt.method() == MethodCube && res.CubeCounts[oi] <= int64(cubeMethodCap)
		if opt.method() == MethodCube && !useCube && res.CubeCounts[oi] <= cubeMethodLimit {
			// The limit would have allowed Method 1; only the budget
			// forced the OFDD route. Record the ladder step.
			degrade(&res.Degradations, c.name, "cube-method", "ofdd-method",
				fmt.Sprintf("cube budget %d below FPRM cube count %d", bud.Limits().Cubes, res.CubeCounts[oi]))
		}
		factorOne := func(fo factor.Options, fbud *budget.Budget,
			cubeCtxs map[string]*factor.Context, ofddCtxs map[string]*factor.OFDDContext) {
			var e *factor.Expr
			if useCube {
				cx, ok := cubeCtxs[key]
				if !ok {
					cx = factor.NewContext(fo)
					cubeCtxs[key] = cx
				}
				e = cx.Factor(form.Cubes)
			} else {
				cx, ok := ofddCtxs[key]
				if !ok {
					om := ofdd.New(nPI, form.Polarity)
					om.SetBudget(fbud)
					om.SetStats(opt.Obs.OFDD())
					if opt.Hooks != nil && opt.Hooks.FactorOFDDAlloc != nil {
						om.SetAllocHook(opt.Hooks.FactorOFDDAlloc())
					}
					cx = factor.NewOFDDContext(om, fo)
					ofddCtxs[key] = cx
				}
				e = cx.Factor(cx.M.FromBDD(r.bm, r.outs[oi]))
			}
			// Rewrite literal space into PI space so one emitter serves all
			// outputs even when their polarity vectors differ.
			c.expr = factor.ApplyPolarity(e, form.Polarity)
		}
		gerr := budget.Guard(func() { factorOne(fopt, bud, cubeCtxs, ofddCtxs) })
		if gerr == nil {
			continue
		}
		if opt.RetryFactor <= 0 || !retryableTrip(gerr, false) {
			c.specCone = true
			degrade(&res.Degradations, c.name, "factor", "spec-cone", gerr.Error())
			continue
		}
		// Budgeted-retry rung, factor edition: one retry on a relaxed
		// slice with fresh one-shot contexts — the shared registries keep
		// the original budget and may hold the half-state of the tripped
		// attempt, so the retry must not touch them (its divisors simply
		// go unshared, a quality loss only).
		degrade(&res.Degradations, c.name, "factor", "retry", gerr.Error())
		rbud := bud.Relaxed(opt.RetryFactor)
		rfopt := factor.Options{ApplyRules: opt.Rules, Budget: rbud, Obs: opt.Obs.Factor()}
		if guard(&res.Degradations, c.name, "retry", "spec-cone", func() {
			factorOne(rfopt, rbud, map[string]*factor.Context{}, map[string]*factor.OFDDContext{})
		}) != nil {
			c.specCone = true
		}
	}
}

// polKey renders a polarity vector as a factoring-context key.
func polKey(pol []bool) string {
	k := make([]byte, len(pol))
	for i, p := range pol {
		k[i] = '0'
		if p {
			k[i] = '1'
		}
	}
	return string(k)
}

// emit emits every factored GF(2) arm into one network, largest-first,
// so the big cones create the shared gates the smaller cones reuse (a
// sum reuses its carry's a⊕b). One emitter serves the whole network:
// structurally identical subexpressions are shared across outputs.
// factor.ApplyPolarity has already put every expression in PI space, so
// outputs with different polarity vectors share one emitter.
func (r *run) emit() {
	r.net = network.New(r.spec.Name + "_rm")
	pis := make([]int, len(r.spec.PIs))
	for i, piID := range r.spec.PIs {
		pis[i] = r.net.AddPI(r.spec.Gates[piID].Name)
	}
	em := factor.NewEmitter(r.net, pis)
	for i := len(r.order) - 1; i >= 0; i-- {
		c := &r.cones[r.order[i]]
		if c.gf2Ready() {
			c.root = em.Emit(c.expr)
			c.emitted = true
		}
	}
}

// selectArms verifies the SOP arms, picks each cone's arm, and
// assembles the candidate networks of the final arbitration.
func (r *run) selectArms() {
	r.verifySopArms()
	choice := r.choose()
	// Candidate assembly. The hybrid keeps each cone's chosen arm; a
	// pure-XOR or pure-SOP assembly is arbitrated alongside it whenever
	// that arm succeeded on every cone. Per-cone choices cannot see
	// cross-cone sharing (an adder's carry chain amortizes across
	// outputs), so a hybrid that wins every cone in isolation can still
	// lose to a single-basis network; arbitrating the pure assemblies
	// keeps the combined flow no worse than either on the whole circuit.
	// Under BasisXor the hybrid is the pure-XOR assembly (or, when a cone
	// fell to its spec copy, the only candidate): the one-arm case.
	r.cands = []candidate{{name: "hybrid", vec: choice, dup: -1}}
	xorPure, sopPure := true, true
	for i := range r.cones {
		xorPure = xorPure && r.cones[i].emitted
		sopPure = sopPure && r.cones[i].sopRes != nil
	}
	if xorPure {
		r.cands = append(r.cands, candidate{name: "xor", vec: uniform(len(r.cones), chXor), dup: -1})
	}
	if sopPure {
		r.cands = append(r.cands, candidate{name: "sop", vec: uniform(len(r.cones), chSop), dup: -1})
	}
	for i := 1; i < len(r.cands); i++ {
		for j := 0; j < i; j++ {
			if r.cands[j].dup < 0 && slices.Equal(r.cands[i].vec, r.cands[j].vec) {
				r.cands[i].dup = j
				break
			}
		}
	}
	// Build assembled candidates first — they graft cones out of the
	// emitter network before Strash rewrites it in place — then finish
	// the all-XOR candidate (when present) on the emitter network itself.
	allXor := func(vec []int) bool { return !slices.ContainsFunc(vec, func(ch int) bool { return ch != chXor }) }
	for i := range r.cands {
		if r.cands[i].dup < 0 && !allXor(r.cands[i].vec) {
			r.cands[i].net = r.assemble(r.cands[i].vec)
		}
	}
	for i := range r.cands {
		if r.cands[i].dup < 0 && allXor(r.cands[i].vec) {
			for oi := range r.cones {
				r.net.AddPO(r.cones[oi].name, r.cones[oi].root)
			}
			r.net.Strash()
			r.cands[i].net = r.net
			break
		}
	}
}

// uniform returns an n-cone choice vector with every cone on arm ch.
func uniform(n, ch int) []int {
	vec := make([]int, n)
	for i := range vec {
		vec[i] = ch
	}
	return vec
}

// verifySopArms re-proves every SOP arm result: a cone may only fall to
// an arm whose result provably computes the spec cone. The arm's network
// is rebuilt as a BDD on the shared manager (budget-guarded, sequential,
// in output order — deterministic at any worker count) and compared by
// hash-consed identity; a miss is that arm's contained failure.
func (r *run) verifySopArms() {
	for oi := range r.cones {
		c := &r.cones[oi]
		if c.sopRes == nil {
			if c.sop && c.sopFail == "" {
				c.sopFail = "sop arm produced no result"
			}
			continue
		}
		var got []bdd.Ref
		if gerr := budget.Guard(func() { got = c.sopRes.Network.ToBDDs(r.bm) }); gerr != nil {
			c.sopRes = nil
			c.sopFail = "sop verify: " + gerr.Error()
			continue
		}
		if len(got) != 1 || got[0] != r.outs[oi] {
			c.sopRes = nil
			c.sopFail = "sop arm result not equivalent to spec cone"
		}
	}
}

// choose picks each cone's arm: literals, then total gates, then XOR on
// a tie (the GF(2) arm is the paper's flow and the deterministic
// default). An arm failure falls back to its sibling's verified result;
// the spec-cone ladder is reached only when every arm of a cone failed.
func (r *run) choose() []int {
	res, ob := r.res, r.opt.Obs.Arbiter()
	choice := make([]int, len(r.cones))
	for oi := range r.cones {
		c := &r.cones[oi]
		bc := BasisChoice{Output: c.name, Predicted: c.predicted, XorLits: -1, SopLits: -1, Reason: c.why}
		var xs, ss network.Stats
		if c.emitted {
			xs = r.net.ConeStats(c.root)
			bc.XorLits = xs.Lits
		}
		if c.sopRes != nil {
			ss = c.sopRes.Stats
			bc.SopLits = ss.Lits
		}
		switch {
		case c.emitted && c.sopRes != nil:
			if ss.Lits < xs.Lits || (ss.Lits == xs.Lits && ss.Total < xs.Total) {
				choice[oi] = chSop
				ob.ArmWin("sop")
			} else {
				choice[oi] = chXor
				ob.ArmWin("xor")
			}
		case c.emitted:
			choice[oi] = chXor
			if c.sop {
				degrade(&res.Degradations, c.name, "sop-arm", "xor-arm", c.sopFail)
				ob.Override()
				bc.Reason = c.sopFail
			}
		case c.sopRes != nil:
			choice[oi] = chSop
			if c.xor {
				reason := c.xorFail
				if reason == "" {
					reason = "GF(2) arm fell back to spec-cone"
				}
				degrade(&res.Degradations, c.name, "xor-arm", "sop-arm", reason)
				ob.Override()
				bc.Reason = reason
			}
		default:
			choice[oi] = chSpec
			if c.xorFail != "" {
				degrade(&res.Degradations, c.name, "xor-arm", "spec-cone", c.xorFail)
			}
			if c.sop && c.sopFail != "" {
				degrade(&res.Degradations, c.name, "sop-arm", "spec-cone", c.sopFail)
			}
		}
		bc.Chosen = choiceNames[choice[oi]]
		res.BasisChoices = append(res.BasisChoices, bc)
	}
	return choice
}

// assemble builds one candidate network: for each output, the chosen
// arm's cone — from the emitter network (GF(2)), the arm's SOP network,
// or the specification — is grafted into a fresh hash-consed network
// with the spec's PI order, so structurally identical subcones are
// shared across outputs by construction.
func (r *run) assemble(vec []int) *network.Network {
	spec := r.spec
	cn := network.New(spec.Name + "_rm")
	for _, piID := range spec.PIs {
		cn.AddPI(spec.Gates[piID].Name)
	}
	fromNet := network.NewCopier(r.net, cn, cn.PIs)
	fromSpec := network.NewCopier(spec, cn, cn.PIs)
	for oi, ch := range vec {
		var root int
		switch ch {
		case chXor:
			root = fromNet.Copy(r.cones[oi].root)
		case chSop:
			sn := r.cones[oi].sopRes.Network
			root = network.NewCopier(sn, cn, cn.PIs).Copy(sn.POs[0].Gate)
		default:
			root = fromSpec.Copy(spec.POs[oi].Gate)
		}
		cn.AddPO(spec.POs[oi].Name, root)
	}
	cn.Strash()
	return cn
}

// prepareReference builds the do-no-harm reference: the specification
// hashed, merged, and cleaned exactly like a candidate, so the final
// comparison is between equally-polished networks.
func (r *run) prepareReference() {
	so := r.spec.Clone()
	so.Strash()
	// MergeEquivalentGates only mutates after its signature loop
	// completes, so a budget trip mid-loop leaves the copy intact.
	guard(&r.res.Degradations, "*", "merge", "skipped", func() { MergeEquivalentGates(so, r.bm) })
	cleanupNetwork(so)
	r.specOpt = so
}

// polish runs the shared optimization tail — redundancy removal
// (snapshot-guarded), cross-output merging, structural cleanup — on one
// candidate, recording its ladder entries on the candidate. A candidate
// already more than 8× the cleaned specification skips redundancy
// removal: the pass cannot close that gap and the time is better saved.
func (r *run) polish(cd *candidate) {
	net, opt, bud := cd.net, r.opt, r.bud
	hopeless := net.CollectStats().Gates2 > 8*r.specOpt.CollectStats().Gates2
	r.stage("redund", func() {
		if !opt.Redund || hopeless {
			return
		}
		if perr := bud.Exceeded(); perr != nil {
			degrade(&cd.degs, "*", "redund", "skipped", perr.Error())
			return
		}
		// Snapshot first: a budget trip inside the pass could land
		// mid-rewrite, and a half-applied candidate must not survive.
		snap := net.Clone()
		if guard(&cd.degs, "*", "redund", "skipped", func() {
			cd.redund = redund.Remove(net, redund.Options{Forms: r.formsFor(cd.vec), Budget: bud})
		}) != nil {
			*net = *snap
			cd.redund = redund.Result{}
		} else if cd.redund.BudgetCut {
			// The pass stopped early but kept its committed reductions:
			// weaker optimization, not a fallback network — still worth
			// a truthful ladder entry.
			reason := "budget exhausted"
			if perr := bud.Exceeded(); perr != nil {
				reason = perr.Error()
			}
			degrade(&cd.degs, "*", "redund", "partial", reason)
		}
	})
	r.stage("merge", func() {
		// Safe without a snapshot: mutation happens only after the BDD
		// signature loop, the sole place a budget trip can occur.
		guard(&cd.degs, "*", "merge", "skipped", func() { MergeEquivalentGates(net, r.bm) })
	})
	// Structural cleanup after the optimization passes: rebalance XOR
	// chains (deferred until after redund, whose Section 4 analysis
	// depends on the factor-phase tree shapes), re-hash, and compact
	// away everything the merges left dead. Runs before verify so the
	// equivalence check covers it.
	r.stage("cleanup", func() { cleanupNetwork(net) })
	cd.stats = net.CollectStats()
}

// formsFor returns the redundancy-removal forms matching a candidate:
// the derived FPRM form for GF(2)-chosen cones, an empty form otherwise
// (SOP and spec cones have no GF(2) cube list).
func (r *run) formsFor(vec []int) []*fprm.Form {
	fs := make([]*fprm.Form, len(vec))
	for oi, ch := range vec {
		if ch == chXor {
			fs[oi] = r.res.Forms[oi]
		} else {
			fs[oi] = fprm.NewForm(r.spec.NumPIs(), nil)
		}
	}
	return fs
}

// worstMap is the mapped cost of an unmappable network: it loses every
// tie.
const worstMap = math.MaxInt

// mapCost returns a network's mapped gate and literal counts.
func mapCost(n *network.Network) (gates, lits int) {
	m, err := techmap.Map(n, techmap.Library())
	if err != nil {
		return worstMap, worstMap
	}
	return m.Gates, m.Lits
}

// arbitrate picks the winning candidate: pre-map literals, then mapped
// gates, then mapped literals, then total gates, then the fixed
// candidate order (hybrid, xor, sop) — the never-worse guarantee,
// lexicographic on the metrics the paper reports. The mapped tie-breaks
// exist because the 2-input cost model cannot order candidates whose
// literal counts tie: a NAND3-friendly SOP cone maps tighter than an
// inverter-heavy GF(2) cone of the same pre-map size, and only the
// library can see that. The ladder entries of every polished candidate
// are recorded, so a fault that only touched a losing candidate still
// leaves its trace.
func (r *run) arbitrate() *candidate {
	cands, res := r.cands, r.res
	for i := range cands {
		if d := cands[i].dup; d >= 0 {
			cands[i].net, cands[i].stats, cands[i].redund = cands[d].net, cands[d].stats, cands[d].redund
			cands[i].mapGates, cands[i].mapLits = cands[d].mapGates, cands[d].mapLits
			continue
		}
		cands[i].mapGates, cands[i].mapLits = mapCost(cands[i].net)
		res.Degradations = append(res.Degradations, cands[i].degs...)
	}
	better := func(a, b *candidate) bool {
		if a.stats.Lits != b.stats.Lits {
			return a.stats.Lits < b.stats.Lits
		}
		if a.mapGates != b.mapGates {
			return a.mapGates < b.mapGates
		}
		if a.mapLits != b.mapLits {
			return a.mapLits < b.mapLits
		}
		return a.stats.Total < b.stats.Total
	}
	win := &cands[0]
	for i := 1; i < len(cands); i++ {
		if better(&cands[i], win) {
			win = &cands[i]
		}
	}
	res.Redund = win.redund
	if slices.ContainsFunc(cands[1:], func(cd candidate) bool { return cd.dup < 0 }) {
		named := func(name string) (lits, mapGates int) {
			for i := range cands {
				if cands[i].name == name {
					return cands[i].stats.Lits, cands[i].mapGates
				}
			}
			return -1, -1
		}
		xl, xg := named("xor")
		sl, sg := named("sop")
		res.BasisChoices = append(res.BasisChoices, BasisChoice{
			Output: "*", Predicted: r.opt.Basis.String(), Chosen: win.name,
			XorLits: xl, SopLits: sl,
			Reason: fmt.Sprintf("lits hybrid=%d xor=%d sop=%d; map-gates hybrid=%d xor=%d sop=%d",
				cands[0].stats.Lits, xl, sl, cands[0].mapGates, xg, sg),
		})
	}
	return win
}

// verify is the safety net: the shipped network must match the
// specification. The budget is detached first — verification must
// always run to completion, even (especially) after a deadline trip —
// and so are the chaos allocation probes.
func (r *run) verify(net *network.Network) error {
	r.bm.SetBudget(nil)
	r.bm.SetAllocHook(nil)
	got := net.ToBDDs(r.bm)
	for i := range got {
		if got[i] != r.outs[i] {
			return fmt.Errorf("core: output %s: %w", r.spec.POs[i].Name, ErrNotEquivalent)
		}
	}
	return nil
}

// doNoHarm returns the network to ship: the winner, or the cleaned
// specification when that is strictly better under the arbitration's
// order (Section 6 scopes the method to functions with manageable FPRM
// forms). Lits is 2×Gates2, so a full tie still ships the synthesized
// result.
func (r *run) doNoHarm(win *candidate) *network.Network {
	st := r.specOpt.CollectStats()
	replace := st.Lits < win.stats.Lits
	if st.Lits == win.stats.Lits {
		sg, sl := mapCost(r.specOpt)
		replace = sg < win.mapGates || (sg == win.mapGates && sl < win.mapLits)
	}
	if !replace {
		return win.net
	}
	r.res.Fallback = true
	degrade(&r.res.Degradations, "*", "do-no-harm", "swept-spec", "FPRM result larger than cleaned specification")
	return r.specOpt
}

// cleanupNetwork runs the cheap structural post-passes: XOR-tree
// rebalancing, a re-hash that also cancels the inverter pairs, buffers
// and constants the rewrites uncovered, and compaction of dead gates.
// None of the passes can increase Gates2 (a rebalanced tree has the same
// leaf count or fewer, hashing only removes), so running them is always
// safe for the do-no-harm comparison.
func cleanupNetwork(net *network.Network) {
	net.RebalanceXorTrees()
	net.Strash()
	net.Compact()
}

// listLits sums the literal counts of a cube list.
func listLits(l *cube.List) int {
	lits := 0
	for _, c := range l.Cubes {
		lits += c.Size()
	}
	return lits
}

// effectiveCap folds an optional budget cube cap into a configured limit:
// the tighter of the two governs.
func effectiveCap(base int, budCubes int64) int {
	if budCubes > 0 && budCubes < int64(base) {
		return int(budCubes)
	}
	return base
}

// ofddNodeBudget caps functional-decision-diagram growth per output; an
// OFDD can be exponentially larger than the BDD of the same function
// (long OR chains are the classic case), and such outputs bypass the
// FPRM flow entirely.
const ofddNodeBudget = 200_000

// retryableTrip reports whether a derivation or factoring failure is a
// transient per-phase cap trip — an OFDD blowup (huge) or a nodes/cubes
// budget error — that the budgeted-retry rung may retry. Globally-spent
// resources (deadline, cancellation, steps) and non-budget errors are
// never retried: the resource stays spent, so the retry would only burn
// more of it.
func retryableTrip(err error, huge bool) bool {
	if huge {
		return true
	}
	var be *budget.Err
	if !errors.As(err, &be) {
		return false
	}
	return be.Limit == "nodes" || be.Limit == "cubes"
}

// deriveForm computes the FPRM form of one output with the configured
// polarity search. For outputs whose cube count exceeds the cube-method
// limit, a sampled form (for pattern generation) is returned — the
// sampled list is only ever used for redundancy-removal patterns, never
// factored (factoring an incomplete list would change the function);
// outputs whose OFDD explodes come back with huge=true and an empty
// form. searchCut reports a polarity search stopped early by the budget
// (the returned best-so-far form is still exact). relax scales the
// built-in OFDD node cap (>1 on the retry rung's second attempt; the
// budget caps are already scaled by Budget.Relaxed). allocHook, when
// non-nil, is the chaos allocation probe for this attempt's OFDD
// manager. s, when non-nil, counts the polarity search's candidates and
// improvements (and the OFDD manager feeds the collector's shared OFDD
// group). The caller wraps this in budget.Guard; a budget trip inside
// unwinds as panic(*budget.Err).
func deriveForm(bm *bdd.Manager, f bdd.Ref, opt Options, bud *budget.Budget, relax float64,
	allocHook func(nodes int) *budget.Err, s *obs.Search) (form *fprm.Form, count int64, huge, searchCut bool) {
	n := bm.NumVars()
	om := ofdd.New(n, nil)
	om.SetBudget(bud)
	om.SetAllocHook(allocHook)
	om.SetStats(opt.Obs.OFDD())
	nodeCap := ofddNodeBudget
	if relax > 1 {
		nodeCap = int(relax * ofddNodeBudget)
	}
	if c := bud.Limits().OFDDNodes; c > 0 && c < nodeCap {
		nodeCap = c
	}
	ref, ok := om.FromBDDBounded(bm, f, nodeCap)
	if !ok {
		return fprm.NewForm(n, nil), -1, true, false
	}
	count = om.CubeCount(ref)
	cubeMethodCap := effectiveCap(cubeMethodLimit, bud.Limits().Cubes)
	if count > int64(cubeMethodCap) {
		// Too large to materialize: keep all-positive polarity and sample
		// only as many cubes as the redundancy-removal pattern budget can
		// use anyway.
		form = fprm.NewForm(n, nil)
		form.Cubes = om.CubesSample(ref, effectiveCap(2048, bud.Limits().Cubes))
		return form, count, false, false
	}
	form = fprm.NewForm(n, nil)
	cubes, err := om.Cubes(ref, cubeMethodCap+1)
	if err != nil {
		// Programmer invariant: CubeCount just reported count ≤ the cap,
		// so extraction from the same diagram cannot exceed it.
		panic(err)
	}
	form.Cubes = cubes
	if count <= searchCubeLimit {
		complete := true
		switch opt.Polarity {
		case PolarityGreedy:
			form, complete = fprm.SearchGreedy(form, bud, s)
		case PolarityExhaustive:
			if n <= exhaustiveLimit {
				form, complete = fprm.SearchExhaustive(form, bud, s)
			} else {
				form, complete = fprm.SearchGreedy(form, bud, s)
			}
		}
		searchCut = !complete
	}
	return form, int64(form.Cubes.Len()), false, searchCut
}

// MergeEquivalentGates merges internal gates computing identical global
// functions (by BDD signature), the effect of the paper's resub step.
// Gates are merged onto their earliest topological representative.
func MergeEquivalentGates(net *network.Network, bm *bdd.Manager) int {
	if bm.NumVars() != net.NumPIs() {
		// Programmer invariant: callers pass the manager the network's
		// BDDs were built in; a variable-count mismatch is a call-site bug.
		panic("core: manager mismatch")
	}
	const sizeCap = 2_000_000
	val := make([]bdd.Ref, len(net.Gates))
	piIdx := make(map[int]int)
	for i, id := range net.PIs {
		piIdx[id] = i
	}
	repl := make([]int, len(net.Gates))
	for i := range repl {
		repl[i] = i
	}
	canon := make(map[bdd.Ref]int)
	merged := 0
	var ins []bdd.Ref
	for _, id := range net.TopoOrder() {
		if bm.Size() > sizeCap {
			return merged // give up gracefully on BDD blowup
		}
		g := &net.Gates[id]
		var f bdd.Ref
		if g.Type == network.PI {
			f = bm.Var(piIdx[id])
		} else {
			ins = ins[:0]
			for _, fi := range g.Fanins {
				ins = append(ins, val[repl[fi]])
			}
			f = network.GateBDD(bm, g.Type, ins)
		}
		val[id] = f
		if g.Type == network.PI {
			canon[f] = id
			continue
		}
		if prev, ok := canon[f]; ok {
			repl[id] = prev
			merged++
		} else {
			canon[f] = id
		}
	}
	for i := range net.Gates {
		for j, f := range net.Gates[i].Fanins {
			net.Gates[i].Fanins[j] = repl[f]
		}
	}
	for i := range net.POs {
		net.POs[i].Gate = repl[net.POs[i].Gate]
	}
	return merged
}
