package server

// The admission limiter is the overload-control loop of rmsynd
// (DESIGN.md §14). Synthesis latency is wildly heterogeneous — FPRM
// polarity search and BDD builds range from microseconds to the full
// deadline on the same hardware — which is exactly the regime where a
// static in-system cap either under-utilizes (cap sized for the worst
// case) or melts down (cap sized for the average, queue full of heavy
// requests all missing their deadlines). The limiter runs AIMD over the
// effective cap instead: congestion signals (a shed, a request that
// burned its whole wall clock, a synthesis far above the moving latency
// baseline) shrink it multiplicatively; every healthy completion earns
// additive regrowth.

import (
	"math/rand/v2"
	"sync"
	"time"
)

const (
	// limiterShrink is the multiplicative-decrease factor applied on a
	// congestion signal.
	limiterShrink = 0.7
	// limiterBaselineAlpha is the EWMA weight of one healthy synthesis
	// latency sample in the moving baseline.
	limiterBaselineAlpha = 0.2
	// limiterLatencyTrip: a synthesis this many times over the warmed
	// baseline counts as congestion even if it met its deadline.
	limiterLatencyTrip = 4.0
	// limiterWarmup is how many baseline samples must accumulate before
	// latency-vs-baseline comparisons fire (sheds and deadline misses
	// act from the first request).
	limiterWarmup = 10
	// limiterCooldown is the default minimum spacing between shrinks, so
	// one overload burst costs one multiplicative decrease, not one per
	// shed response.
	limiterCooldown = 250 * time.Millisecond
)

// limiter gates admission to the request path: one slot per request in
// the system (queued or synthesizing), with an effective cap that AIMD
// moves between 1 and the static capacity.
type limiter struct {
	max      int
	cooldown time.Duration

	mu         sync.Mutex
	limit      float64 // effective cap, in [1, max]
	inSystem   int
	ewmaMS     float64 // moving baseline of healthy synthesis latency
	samples    int64
	lastShrink time.Time
	shrinks    int64 // total multiplicative decreases, for /metrics
}

func newLimiter(max int) *limiter {
	if max < 1 {
		max = 1
	}
	return &limiter{max: max, limit: float64(max), cooldown: limiterCooldown}
}

// tryAcquire claims an in-system slot if the effective cap allows it.
func (l *limiter) tryAcquire() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inSystem >= l.effectiveLocked() {
		return false
	}
	l.inSystem++
	return true
}

// release returns an in-system slot.
func (l *limiter) release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inSystem--
	if l.inSystem < 0 {
		panic("server: limiter released below zero")
	}
}

// effectiveLocked is the integer cap admission compares against; never
// below 1 so the server cannot wedge itself shut.
func (l *limiter) effectiveLocked() int {
	n := int(l.limit)
	if n < 1 {
		n = 1
	}
	if n > l.max {
		n = l.max
	}
	return n
}

// Effective returns the current integer cap.
func (l *limiter) Effective() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.effectiveLocked()
}

// InSystem returns the current slot holders (queued + synthesizing).
func (l *limiter) InSystem() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inSystem
}

// Shrinks returns the total number of multiplicative decreases.
func (l *limiter) Shrinks() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.shrinks
}

// Baseline returns the moving latency baseline (0 until warmed).
func (l *limiter) Baseline() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.samples < limiterWarmup {
		return 0
	}
	return time.Duration(l.ewmaMS * float64(time.Millisecond))
}

// onShed records an admission refusal — the overload signal that exists
// even when no request completes — and shrinks the cap (cooldown-
// limited).
func (l *limiter) onShed() {
	l.mu.Lock()
	l.shrinkLocked(time.Now())
	l.mu.Unlock()
}

// observe feeds one completed request into the control loop.
// deadlineMiss marks a request that burned its whole wall clock
// (queue timeout, or a response that took the full granted deadline);
// sample marks a latency that measures an actual synthesis (a cache
// miss) and may feed the baseline. Healthy completions earn additive
// regrowth: +1/limit per success, i.e. about one slot per "round" of
// limit successes — classic AIMD.
func (l *limiter) observe(latency time.Duration, deadlineMiss, sample bool) {
	now := time.Now()
	ms := float64(latency) / float64(time.Millisecond)
	l.mu.Lock()
	defer l.mu.Unlock()
	if deadlineMiss {
		l.shrinkLocked(now)
		return
	}
	if sample {
		if l.samples >= limiterWarmup && l.ewmaMS > 0 && ms > limiterLatencyTrip*l.ewmaMS {
			// Far above baseline: congestion, and the sample is excluded
			// from the baseline so sustained overload cannot normalize
			// itself.
			l.shrinkLocked(now)
			return
		}
		if l.samples == 0 {
			l.ewmaMS = ms
		} else {
			l.ewmaMS = (1-limiterBaselineAlpha)*l.ewmaMS + limiterBaselineAlpha*ms
		}
		l.samples++
	}
	if l.limit < float64(l.max) {
		l.limit += 1 / l.limit
		if l.limit > float64(l.max) {
			l.limit = float64(l.max)
		}
	}
}

// shrinkLocked applies one multiplicative decrease, at most once per
// cooldown window. Caller holds l.mu.
func (l *limiter) shrinkLocked(now time.Time) {
	if now.Sub(l.lastShrink) < l.cooldown {
		return
	}
	l.lastShrink = now
	l.limit *= limiterShrink
	if l.limit < 1 {
		l.limit = 1
	}
	l.shrinks++
}

// retryAfterMS derives the shed backoff from current queue pressure: a
// 500 ms base per queued-or-running request ahead of the retrier,
// clamped to [500 ms, 30 s], with ±20% jitter so shed clients do not
// return in lockstep (the thundering-herd fix — a constant Retry-After
// synchronizes every client the shed wave turned away).
func retryAfterMS(queued int64) int64 {
	if queued < 0 {
		queued = 0
	}
	base := 500 * (1 + queued)
	if base > 30_000 {
		base = 30_000
	}
	return jitterMS(base)
}

// jitterMS applies ±20% uniform jitter to a millisecond value.
func jitterMS(ms int64) int64 {
	j := int64(float64(ms) * (0.8 + 0.4*rand.Float64()))
	if j < 1 {
		j = 1
	}
	return j
}
