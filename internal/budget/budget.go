// Package budget provides the resource-governance primitives of the
// synthesis pipeline: a per-request Budget carrying a deadline (via
// context.Context), node caps for the BDD/OFDD managers, a cube cap for
// materialized FPRM forms, and a work-step cap for the hot recursion
// loops (ITE/apply/FromBDD).
//
// The canonical-form flows this repo implements can blow up suddenly on
// arithmetic circuits (the failure shape Yu & Ciesielski describe for
// Galois-field arithmetic, and the "unmanageable FPRM forms" the source
// paper concedes in Section 6). A Budget turns those blowups into a
// typed, recoverable Err instead of unbounded growth or process death.
//
// # Trip mechanism
//
// Budget checks sit inside hot recursions whose signatures cannot
// reasonably carry an error return (every BDD ITE call, every OFDD XOR).
// A tripped check therefore unwinds with panic(*Err) — a controlled
// non-local exit in the style of encoding/json — and Guard converts it
// back into an ordinary error at the phase boundary. The panic never
// escapes the public API of the packages that use budgets: core and
// sisbase wrap every budgeted phase in Guard.
//
// # Concurrency
//
// A Budget is safe for concurrent use: one budget governs every worker
// of a parallel derivation fan-out (see core.Synthesize). The step
// counter is a single atomic add, the sticky first-trip is an atomic
// pointer published once via compare-and-swap, and the limits are
// immutable after New. The amortized deadline poll is preserved — across
// all workers, whichever goroutine lands on a multiple of the check
// interval consults the clock, so the per-step overhead stays an atomic
// increment and a mask test.
//
// All methods are safe on a nil *Budget and cost a single nil check, so
// unbudgeted callers pay nothing.
package budget

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Err reports an exhausted resource budget. It identifies the pipeline
// phase that tripped, which limit was hit, and how much was used.
type Err struct {
	Phase string // pipeline phase, e.g. "bdd", "ofdd", "factor", "polarity"
	Limit string // "deadline", "canceled", "nodes", "cubes", or "steps"
	Max   int64  // the configured limit (0 for deadline/cancellation)
	Used  int64  // resource consumption when the check tripped
}

// Error implements the error interface.
func (e *Err) Error() string {
	switch e.Limit {
	case "deadline", "canceled":
		return fmt.Sprintf("budget exceeded in %s: %s", e.Phase, e.Limit)
	}
	return fmt.Sprintf("budget exceeded in %s: %s limit %d reached (used %d)", e.Phase, e.Limit, e.Max, e.Used)
}

// IsExceeded reports whether err is (or wraps) a budget exhaustion.
func IsExceeded(err error) bool {
	var be *Err
	return errors.As(err, &be)
}

// Limits configures the resource caps of a Budget. Zero values mean
// "unlimited" for that resource; the deadline comes from the context.
type Limits struct {
	BDDNodes  int   // max nodes in the shared ROBDD manager
	OFDDNodes int   // max nodes per OFDD manager
	Cubes     int64 // max materialized FPRM cubes per output
	Steps     int64 // max recursion steps (ITE/apply/XOR memo misses) overall
}

// checkMask amortizes the wall-clock check: time.Now is consulted once
// every 256 steps, so the per-step overhead in the ITE loop stays at a
// counter increment and a mask test.
const checkMask = 255

// Budget is a per-request resource budget shared by every manager and
// phase of one synthesis run. It is safe for concurrent use: one Budget
// governs all workers of a parallel run (concurrent *runs* still use
// separate Budgets, since steps are a per-run resource).
type Budget struct {
	ctx      context.Context
	deadline time.Time
	hasDL    bool
	lim      Limits
	steps    atomic.Int64
	tripped  atomic.Pointer[Err] // first sticky trip, memoized so later checks fail fast
	stepHook StepHook
	polls    atomic.Int64
	pollHook PollHook
}

// StepHook is a fault-injection probe consulted on every counted work
// step (see SetStepHook). It receives the phase tag and the global step
// number just consumed; returning a non-nil *Err makes the budget trip
// with exactly that error. Hooks run on whichever goroutine took the
// step, so they must be safe for concurrent use; deterministic hooks
// key off the step number (the atomic counter hands each value to
// exactly one goroutine) rather than off their own state.
type StepHook func(phase string, step int64) *Err

// PollHook is a fault-injection probe consulted on every Exceeded poll
// (see SetPollHook). It receives the ordinal of the poll; returning a
// non-nil *Err makes that poll — and every later check — report the
// injected error. Poll trips are always sticky: Exceeded models
// *observed* exhaustion, which callers assume does not heal.
type PollHook func(poll int64) *Err

// New returns a Budget over the context's deadline/cancellation and the
// given limits. A nil ctx is treated as context.Background().
func New(ctx context.Context, lim Limits) *Budget {
	if ctx == nil {
		ctx = context.Background()
	}
	b := &Budget{ctx: ctx, lim: lim}
	if dl, ok := ctx.Deadline(); ok {
		b.deadline = dl
		b.hasDL = true
	}
	return b
}

// SetStepHook installs a fault-injection step probe (nil removes it).
// The hook is for the deterministic chaos harness (internal/chaos):
// production budgets never set one, and the disabled path costs a
// single nil check per step. Install hooks before sharing the budget
// across goroutines; the field is not synchronized.
func (b *Budget) SetStepHook(h StepHook) {
	if b == nil {
		return
	}
	b.stepHook = h
}

// SetPollHook installs a fault-injection poll probe (nil removes it).
// Like SetStepHook this exists for internal/chaos only: the disabled
// path costs one nil check per Exceeded call on top of the poll
// counter (which always runs — Polls feeds the run report). Install
// before sharing the budget across goroutines.
func (b *Budget) SetPollHook(h PollHook) {
	if b == nil {
		return
	}
	b.pollHook = h
}

// Limits returns the configured caps.
func (b *Budget) Limits() Limits {
	if b == nil {
		return Limits{}
	}
	return b.lim
}

// Steps returns the number of work steps consumed so far.
func (b *Budget) Steps() int64 {
	if b == nil {
		return 0
	}
	return b.steps.Load()
}

// Polls returns the number of graceful Exceeded polls taken so far.
// Together with Steps it gives the run report its budget totals.
func (b *Budget) Polls() int64 {
	if b == nil {
		return 0
	}
	return b.polls.Load()
}

// trip raises the budget error. The panic is a controlled non-local exit
// out of the hot recursion loops; it is recovered by Guard at the calling
// phase boundary and never escapes the public API of the packages using
// budgets.
//
// Only globally-spent resources are memoized as sticky (deadline,
// cancellation, steps): once spent they stay spent, so later checks fail
// fast. The memo is published with a compare-and-swap so exactly one
// trip wins under concurrency; every worker that checks afterwards sees
// the same *Err. Node and cube trips are per-phase — a fresh OFDD
// manager for the next output starts below its cap again — and must not
// poison the rest of the run.
func (b *Budget) trip(phase, limit string, max, used int64) {
	b.inject(&Err{Phase: phase, Limit: limit, Max: max, Used: used})
}

// Step counts one unit of work (one memo miss in a hot recursion) and
// trips on step-budget exhaustion; every 256 steps (across all workers
// sharing the budget) it also checks the deadline and cancellation.
func (b *Budget) Step(phase string) {
	if b == nil {
		return
	}
	if t := b.tripped.Load(); t != nil {
		// Fail fast with the memoized error itself: the trip is reported
		// at the phase where the resource was first exhausted (matching
		// what Exceeded returns), not wherever the next step happened.
		panic(t)
	}
	s := b.steps.Add(1)
	if b.stepHook != nil {
		if e := b.stepHook(phase, s); e != nil {
			b.inject(e)
		}
	}
	if b.lim.Steps > 0 && s > b.lim.Steps {
		b.trip(phase, "steps", b.lim.Steps, s)
	}
	if s&checkMask == 0 {
		b.checkTime(phase)
	}
}

// inject trips the budget with e, which trip builds or a step hook
// supplies: globally-spent limits are memoized so every later check
// converges on the same error, per-phase limits stay transient (the
// next output's fresh manager starts below its cap again).
func (b *Budget) inject(e *Err) {
	switch e.Limit {
	case "deadline", "canceled", "steps":
		b.tripped.CompareAndSwap(nil, e)
	}
	panic(e)
}

// checkTime trips on an expired deadline or a canceled context.
func (b *Budget) checkTime(phase string) {
	if b.hasDL && !time.Now().Before(b.deadline) {
		b.trip(phase, "deadline", 0, 0)
	}
	if err := b.ctx.Err(); err != nil {
		b.trip(phase, "canceled", 0, 0)
	}
}

// CheckBDDNodes trips when the BDD manager has grown past its node cap.
func (b *Budget) CheckBDDNodes(used int) {
	if b == nil || b.lim.BDDNodes <= 0 {
		return
	}
	if used > b.lim.BDDNodes {
		b.trip("bdd", "nodes", int64(b.lim.BDDNodes), int64(used))
	}
}

// CheckOFDDNodes trips when an OFDD manager has grown past its node cap.
func (b *Budget) CheckOFDDNodes(used int) {
	if b == nil || b.lim.OFDDNodes <= 0 {
		return
	}
	if used > b.lim.OFDDNodes {
		b.trip("ofdd", "nodes", int64(b.lim.OFDDNodes), int64(used))
	}
}

// CheckCubes trips when a materialized cube count exceeds the cube cap.
func (b *Budget) CheckCubes(phase string, used int64) {
	if b == nil || b.lim.Cubes <= 0 {
		return
	}
	if used > b.lim.Cubes {
		b.trip(phase, "cubes", b.lim.Cubes, used)
	}
}

// Exceeded reports — without panicking — whether the budget is already
// exhausted (a previous trip, an expired deadline, or a canceled
// context). Phases that can stop gracefully (polarity search, the
// sisbase iteration loop) poll this between units of work. Under
// concurrency the first memoized trip wins; a deadline/cancellation
// observed here is published the same way so all workers converge on
// one error.
func (b *Budget) Exceeded() error {
	if b == nil {
		return nil
	}
	if t := b.tripped.Load(); t != nil {
		return t
	}
	poll := b.polls.Add(1)
	if b.pollHook != nil {
		if e := b.pollHook(poll); e != nil {
			b.tripped.CompareAndSwap(nil, e)
			return b.tripped.Load()
		}
	}
	if b.hasDL && !time.Now().Before(b.deadline) {
		b.tripped.CompareAndSwap(nil, &Err{Phase: "poll", Limit: "deadline"})
		return b.tripped.Load()
	}
	if b.ctx.Err() != nil {
		b.tripped.CompareAndSwap(nil, &Err{Phase: "poll", Limit: "canceled"})
		return b.tripped.Load()
	}
	return nil
}

// Guard runs f and converts a budget trip into an ordinary error. Any
// other panic propagates unchanged (core.Synthesize has a final
// boundary that tags those with the failing phase).
func Guard(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if be, ok := r.(*Err); ok {
				err = be
				return
			}
			// Not a budget trip: re-raise for the caller's residual-panic
			// boundary. This panic cannot fire for budget errors.
			panic(r)
		}
	}()
	f()
	return nil
}
