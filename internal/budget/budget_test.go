package budget

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNilBudgetIsNoOp(t *testing.T) {
	var b *Budget
	b.Step("bdd")
	b.CheckBDDNodes(1 << 30)
	b.CheckOFDDNodes(1 << 30)
	b.CheckCubes("fprm", 1<<40)
	if b.Exceeded() != nil {
		t.Fatal("nil budget never exceeded")
	}
}

func TestStepLimitTrips(t *testing.T) {
	b := New(context.Background(), Limits{Steps: 10})
	err := Guard(func() {
		for i := 0; i < 100; i++ {
			b.Step("bdd")
		}
	})
	if !IsExceeded(err) {
		t.Fatalf("want budget error, got %v", err)
	}
	var be *Err
	if !errors.As(err, &be) || be.Limit != "steps" || be.Phase != "bdd" || be.Max != 10 {
		t.Fatalf("bad error detail: %+v", be)
	}
	// Later checks fail fast without doing work.
	if b.Exceeded() == nil {
		t.Fatal("tripped budget must report Exceeded")
	}
}

func TestNodeLimits(t *testing.T) {
	b := New(context.Background(), Limits{BDDNodes: 5, OFDDNodes: 7})
	if err := Guard(func() { b.CheckBDDNodes(5) }); err != nil {
		t.Fatalf("at the limit must pass: %v", err)
	}
	if err := Guard(func() { b.CheckBDDNodes(6) }); !IsExceeded(err) {
		t.Fatalf("want trip, got %v", err)
	}
	if err := Guard(func() { b.CheckOFDDNodes(8) }); !IsExceeded(err) {
		t.Fatalf("want trip, got %v", err)
	}
}

func TestDeadlineTrips(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	time.Sleep(2 * time.Millisecond)
	b := New(ctx, Limits{})
	err := Guard(func() {
		for i := 0; i < 10000; i++ { // amortized check fires within 256 steps
			b.Step("ofdd")
		}
	})
	if !IsExceeded(err) {
		t.Fatalf("want deadline trip, got %v", err)
	}
	if b.Exceeded() == nil {
		t.Fatal("expired deadline must poll as exceeded")
	}
}

func TestCancellationPolls(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := New(ctx, Limits{})
	if b.Exceeded() != nil {
		t.Fatal("fresh context not exceeded")
	}
	cancel()
	if err := b.Exceeded(); err == nil || !IsExceeded(err) {
		t.Fatalf("canceled context must poll as exceeded, got %v", err)
	}
}

func TestCubesAllowed(t *testing.T) {
	b := New(context.Background(), Limits{Cubes: 100})
	if err := Guard(func() { b.CheckCubes("fprm", 100) }); err != nil {
		t.Fatalf("cube cap boundary wrong: 100 cubes tripped a cap of 100: %v", err)
	}
	if err := Guard(func() { b.CheckCubes("fprm", 101) }); !IsExceeded(err) {
		t.Fatalf("want cube trip, got %v", err)
	}
}

func TestGuardPassesForeignPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("foreign panic must propagate through Guard")
		}
	}()
	_ = Guard(func() { panic(fmt.Errorf("unrelated")) })
}

// A shared budget must be usable from many goroutines: the step counter
// must not lose increments and a sticky trip must be observed by every
// worker. Run with -race (CI does).
func TestConcurrentSteps(t *testing.T) {
	b := New(context.Background(), Limits{})
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.Step("bdd")
			}
		}()
	}
	wg.Wait()
	if got := b.Steps(); got != workers*per {
		t.Fatalf("lost steps under concurrency: got %d want %d", got, workers*per)
	}
}

func TestConcurrentStepLimitSticky(t *testing.T) {
	b := New(context.Background(), Limits{Steps: 1000})
	const workers = 8
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = Guard(func() {
				for i := 0; i < 10000; i++ {
					b.Step("ofdd")
				}
			})
		}(w)
	}
	wg.Wait()
	tripped := 0
	for _, err := range errs {
		if err == nil {
			continue
		}
		tripped++
		if !IsExceeded(err) {
			t.Fatalf("non-budget error from worker: %v", err)
		}
		var be *Err
		if !errors.As(err, &be) || be.Limit != "steps" {
			t.Fatalf("want steps trip, got %+v", be)
		}
	}
	if tripped == 0 {
		t.Fatal("no worker tripped a 1000-step budget under 80000 steps")
	}
	if b.Exceeded() == nil {
		t.Fatal("sticky trip must be visible to later polls")
	}
	// All workers that observe the memo see the same first-trip error.
	first := b.Exceeded()
	if e2 := b.Exceeded(); e2 != first {
		t.Fatal("memoized trip must be stable")
	}
}

func TestConcurrentCancellationConverges(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := New(ctx, Limits{})
	cancel()
	const workers = 8
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = b.Exceeded()
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err == nil || !IsExceeded(err) {
			t.Fatalf("worker %d: want canceled trip, got %v", w, err)
		}
	}
}
