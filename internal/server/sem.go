package server

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// sem is a weighted FIFO counting semaphore: the bounded global worker
// pool every request draws its derivation workers from. FIFO ordering
// means a wide request queued behind narrow ones cannot be starved by a
// stream of later narrow acquisitions, and a request acquires all of its
// slots atomically — there are no partial holds to deadlock on.
type sem struct {
	size int

	mu      sync.Mutex
	cur     int
	waiters list.List // of *semWaiter, FIFO
}

type semWaiter struct {
	n     int
	ready chan struct{} // closed when granted
}

func newSem(size int) *sem {
	if size < 1 {
		size = 1
	}
	return &sem{size: size}
}

// Acquire blocks until n slots are free (and every earlier waiter is
// served) or ctx is done. n is clamped to the pool size so a request
// asking for more workers than exist degrades to "the whole pool".
func (s *sem) Acquire(ctx context.Context, n int) error {
	if n < 1 {
		n = 1
	}
	if n > s.size {
		n = s.size
	}
	s.mu.Lock()
	if s.size-s.cur >= n && s.waiters.Len() == 0 {
		s.cur += n
		s.mu.Unlock()
		return nil
	}
	w := &semWaiter{n: n, ready: make(chan struct{})}
	elem := s.waiters.PushBack(w)
	s.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		select {
		case <-w.ready:
			// Granted concurrently with cancellation: give the slots
			// back (waking anyone behind us) and report the timeout.
			s.mu.Unlock()
			s.Release(n)
		default:
			// Leaving may unblock the waiters behind us: a narrow
			// follower that fits the free slots must not wait for
			// the next Release.
			s.waiters.Remove(elem)
			s.wake()
			s.mu.Unlock()
		}
		return ctx.Err()
	}
}

// Release returns n slots (clamped as in Acquire) and serves waiters in
// FIFO order while they fit.
func (s *sem) Release(n int) {
	if n < 1 {
		n = 1
	}
	if n > s.size {
		n = s.size
	}
	s.mu.Lock()
	s.cur -= n
	if s.cur < 0 {
		s.mu.Unlock()
		panic(fmt.Sprintf("server: semaphore released below zero (%d)", s.cur))
	}
	s.wake()
	s.mu.Unlock()
}

// wake serves waiters in FIFO order while they fit. Called with s.mu
// held.
func (s *sem) wake() {
	for {
		front := s.waiters.Front()
		if front == nil {
			break
		}
		w := front.Value.(*semWaiter)
		if s.size-s.cur < w.n {
			break // FIFO: nobody overtakes the blocked head waiter
		}
		s.cur += w.n
		s.waiters.Remove(front)
		close(w.ready)
	}
}

// InUse returns the currently held slot count.
func (s *sem) InUse() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}
