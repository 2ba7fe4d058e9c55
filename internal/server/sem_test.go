package server

import (
	"context"
	"testing"
	"time"
)

func TestSemAcquireRelease(t *testing.T) {
	s := newSem(4)
	ctx := context.Background()
	if err := s.Acquire(ctx, 3); err != nil {
		t.Fatalf("Acquire(3): %v", err)
	}
	if got := s.InUse(); got != 3 {
		t.Fatalf("InUse = %d, want 3", got)
	}
	if err := s.Acquire(ctx, 1); err != nil {
		t.Fatalf("Acquire(1): %v", err)
	}
	s.Release(3)
	s.Release(1)
	if got := s.InUse(); got != 0 {
		t.Fatalf("InUse after release = %d, want 0", got)
	}
}

// TestSemClamping: a request wider than the pool degrades to "the whole
// pool" instead of deadlocking forever, and n<1 is treated as 1.
func TestSemClamping(t *testing.T) {
	s := newSem(2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Acquire(ctx, 100); err != nil {
		t.Fatalf("Acquire(100) on size 2: %v", err)
	}
	if got := s.InUse(); got != 2 {
		t.Fatalf("InUse = %d, want 2 (clamped)", got)
	}
	s.Release(100)
	if err := s.Acquire(ctx, 0); err != nil {
		t.Fatalf("Acquire(0): %v", err)
	}
	if got := s.InUse(); got != 1 {
		t.Fatalf("InUse = %d, want 1 (raised)", got)
	}
	s.Release(0)
}

// TestSemFIFONoOvertaking: a narrow acquisition queued behind a wide
// blocked head must wait its turn — later releases serve the head first.
func TestSemFIFONoOvertaking(t *testing.T) {
	s := newSem(2)
	ctx := context.Background()
	if err := s.Acquire(ctx, 2); err != nil {
		t.Fatal(err)
	}

	wideDone := make(chan struct{})
	narrowDone := make(chan struct{})
	wideQueued := make(chan struct{})
	go func() {
		close(wideQueued)
		if err := s.Acquire(ctx, 2); err != nil {
			t.Error(err)
		}
		close(wideDone)
	}()
	<-wideQueued
	// Make sure the wide waiter is actually parked before the narrow one
	// joins the queue behind it.
	waitQueued(t, s, 1)
	go func() {
		if err := s.Acquire(ctx, 1); err != nil {
			t.Error(err)
		}
		close(narrowDone)
	}()

	// One slot free: fits the narrow waiter, but the wide head blocks it.
	s.Release(1)
	select {
	case <-narrowDone:
		t.Fatal("narrow waiter overtook the blocked wide head")
	case <-wideDone:
		t.Fatal("wide waiter granted with only one slot free")
	case <-time.After(20 * time.Millisecond):
	}

	// Second slot: the wide head is served, then the narrow one once the
	// wide holder releases.
	s.Release(1)
	select {
	case <-wideDone:
	case <-time.After(5 * time.Second):
		t.Fatal("wide waiter never served")
	}
	s.Release(2)
	select {
	case <-narrowDone:
	case <-time.After(5 * time.Second):
		t.Fatal("narrow waiter never served")
	}
	s.Release(1)
	if got := s.InUse(); got != 0 {
		t.Fatalf("InUse = %d, want 0", got)
	}
}

// TestSemCancelWhileWaiting: a cancelled waiter reports ctx.Err, leaves
// the queue, and does not wedge waiters behind it.
func TestSemCancelWhileWaiting(t *testing.T) {
	s := newSem(1)
	if err := s.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- s.Acquire(ctx, 1) }()
	waitQueued(t, s, 1)
	cancel()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("cancelled Acquire = %v, want context.Canceled", err)
	}
	// The abandoned slot request must not block a live one.
	done := make(chan error, 1)
	go func() { done <- s.Acquire(context.Background(), 1) }()
	s.Release(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("post-cancel Acquire: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("release after cancelled waiter never served the next one")
	}
}

// TestSemCancelledHeadWakesFollower: when a blocked wide head gives up,
// a narrow follower that fits the free slots is served at once — it
// must not wait for an unrelated Release.
func TestSemCancelledHeadWakesFollower(t *testing.T) {
	s := newSem(2)
	if err := s.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	headErr := make(chan error, 1)
	go func() { headErr <- s.Acquire(ctx, 2) }()
	waitQueued(t, s, 1)
	followerErr := make(chan error, 1)
	go func() { followerErr <- s.Acquire(context.Background(), 1) }()
	waitQueued(t, s, 2)

	cancel()
	if err := <-headErr; err != context.Canceled {
		t.Fatalf("cancelled head Acquire = %v, want context.Canceled", err)
	}
	select {
	case err := <-followerErr:
		if err != nil {
			t.Fatalf("follower Acquire: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower still blocked with a slot free after the head left")
	}
	if got := s.InUse(); got != 2 {
		t.Fatalf("InUse = %d, want 2", got)
	}
}

// waitQueued waits until n acquisitions are parked in s's queue.
func waitQueued(t *testing.T, s *sem, n int) {
	t.Helper()
	for i := 0; ; i++ {
		s.mu.Lock()
		got := s.waiters.Len()
		s.mu.Unlock()
		if got == n {
			return
		}
		if i > 1000 {
			t.Fatalf("%d waiters queued, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}
