package server

import (
	"testing"
	"time"
)

// TestLimiterAIMD: congestion signals shrink the cap multiplicatively
// (never below 1), healthy completions regrow it additively back to max.
func TestLimiterAIMD(t *testing.T) {
	l := newLimiter(10)
	l.cooldown = 0 // every signal counts; production paces via cooldown

	l.onShed()
	if got := l.Effective(); got != 7 {
		t.Fatalf("after one shed: cap = %d, want 7 (10*0.7)", got)
	}
	// Shrink to the floor; it must never reach 0.
	for i := 0; i < 50; i++ {
		l.observe(time.Second, true, false)
	}
	if got := l.Effective(); got != 1 {
		t.Fatalf("after sustained misses: cap = %d, want floor 1", got)
	}
	if !l.tryAcquire() {
		t.Fatal("cap floor wedged the server shut")
	}
	l.release()

	// Healthy completions regrow additively to max.
	for i := 0; i < 200 && l.Effective() < 10; i++ {
		l.observe(5*time.Millisecond, false, true)
	}
	if got := l.Effective(); got != 10 {
		t.Fatalf("regrowth stalled at %d, want 10", got)
	}
	if s := l.Shrinks(); s == 0 {
		t.Error("shrink counter never moved")
	}
}

// TestLimiterLatencyTrip: once the baseline is warm, one sample far
// above it is a congestion signal — and is excluded from the baseline,
// so sustained overload cannot normalize itself.
func TestLimiterLatencyTrip(t *testing.T) {
	l := newLimiter(8)
	l.cooldown = 0
	for i := 0; i < limiterWarmup; i++ {
		l.observe(10*time.Millisecond, false, true)
	}
	if b := l.Baseline(); b < 5*time.Millisecond || b > 20*time.Millisecond {
		t.Fatalf("warmed baseline = %v, want ~10ms", b)
	}
	before, shrinksBefore := l.Effective(), l.Shrinks()
	l.observe(200*time.Millisecond, false, true) // 20x the baseline
	if got := l.Shrinks(); got != shrinksBefore+1 {
		t.Fatalf("outlier did not shrink: %d shrinks, cap %d→%d", got, before, l.Effective())
	}
	if b := l.Baseline(); b > 20*time.Millisecond {
		t.Errorf("outlier polluted the baseline: %v", b)
	}
}

// TestLimiterCooldown: one overload burst costs one multiplicative
// decrease, not one per shed.
func TestLimiterCooldown(t *testing.T) {
	l := newLimiter(10)
	l.cooldown = time.Hour
	l.onShed()
	l.onShed()
	l.onShed()
	if got := l.Shrinks(); got != 1 {
		t.Fatalf("burst of 3 sheds caused %d shrinks, want 1", got)
	}
}

// TestRetryAfterMS: the shed backoff scales with queue pressure, is
// clamped to [≈500ms, ≈30s], and carries ±20% jitter.
func TestRetryAfterMS(t *testing.T) {
	inWindow := func(ms, base int64) bool {
		lo := int64(float64(base) * 0.8)
		hi := int64(float64(base)*1.2) + 1
		return ms >= lo && ms <= hi
	}
	for i := 0; i < 100; i++ {
		if ms := retryAfterMS(0); !inWindow(ms, 500) {
			t.Fatalf("empty queue: %dms outside 500ms jitter window", ms)
		}
		if ms := retryAfterMS(3); !inWindow(ms, 2000) {
			t.Fatalf("3 queued: %dms outside 2000ms jitter window", ms)
		}
		if ms := retryAfterMS(1_000_000); !inWindow(ms, 30_000) {
			t.Fatalf("huge queue: %dms outside the 30s clamp window", ms)
		}
	}
	// Jitter must actually vary — a constant Retry-After synchronizes
	// every shed client into the next wave.
	seen := map[int64]bool{}
	for i := 0; i < 64; i++ {
		seen[retryAfterMS(3)] = true
	}
	if len(seen) < 2 {
		t.Error("retryAfterMS returned a constant; jitter is not applied")
	}
}
