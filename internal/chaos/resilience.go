package chaos

// Resilience scenarios (DESIGN.md §14): the overload and crash-recovery
// behaviors layered onto rmsynd. Each gets a fresh server behind a real
// listener, like every other server-level scenario, and asserts the
// same contract — every response truthful, the process alive — plus
// the AIMD limiter's cap converging down under storm and regrowing
// after, and the persistent cache surviving corruption without serving
// it.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/sigcache"
)

// runOverloadStorm: under a storm — a burst past capacity whose
// admitted requests then burn their whole wall clock — the AIMD
// limiter shrinks the effective cap below the static capacity; once
// healthy traffic resumes, additive regrowth returns it to capacity
// within a bounded window.
func runOverloadStorm(spec []byte, bad func(string, string)) {
	gate := make(chan struct{})
	var gateArmed atomic.Bool
	gateArmed.Store(true)
	var once sync.Once
	defer once.Do(func() { close(gate) })
	srv, ts := newTestServer(server.Config{
		Workers:    1,
		QueueDepth: 5,
		Hooks: &server.Hooks{JobStart: func(string) {
			if gateArmed.Load() {
				<-gate
			}
		}},
	})
	defer ts.Close()
	capacity := srv.QueueCapacity()
	if srv.EffectiveLimit() != capacity {
		bad("limiter", fmt.Sprintf("fresh limiter at %d, want the static capacity %d", srv.EffectiveLimit(), capacity))
	}

	// The storm: 2x capacity requests, 300ms deadlines, the worker gated
	// shut. The overflow sheds (one multiplicative decrease per cooldown
	// window), the admitted ones queue-timeout (more decreases).
	var wg sync.WaitGroup
	var shed atomic.Int64
	for i := 0; i < 2*capacity; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := post(ts.Client(), ts.URL, spec, map[string]string{
				"X-Rmsynd-Timeout":  "300ms",
				"X-Rmsynd-No-Cache": "1",
			})
			if r.err == nil && r.status == http.StatusTooManyRequests {
				shed.Add(1)
			}
		}()
	}
	// Let the sheds and queue timeouts resolve, then open the gate so the
	// one request holding the pool runs its (expired) course — the gate
	// must open before the wait, or that request never returns.
	time.Sleep(500 * time.Millisecond)
	once.Do(func() { close(gate) })
	gateArmed.Store(false)
	wg.Wait()

	if shed.Load() == 0 {
		bad("shed", "storm past capacity shed nothing")
	}
	converged := srv.EffectiveLimit()
	if converged >= capacity {
		bad("limiter", fmt.Sprintf("effective cap %d did not shrink below capacity %d under the storm", converged, capacity))
	}

	// Recovery: healthy completions regrow the cap additively back to
	// capacity within a bounded window.
	deadline := time.Now().Add(15 * time.Second)
	for srv.EffectiveLimit() < capacity {
		if time.Now().After(deadline) {
			bad("limiter", fmt.Sprintf("cap stuck at %d of %d after the storm cleared", srv.EffectiveLimit(), capacity))
			return
		}
		if r := post(ts.Client(), ts.URL, spec, nil); r.err != nil || r.status != http.StatusOK {
			bad("alive", fmt.Sprintf("healthy traffic after the storm: err=%v status=%d", r.err, r.status))
			return
		}
	}
}

// runCacheCrashRecovery: a server restart against the same cache
// directory — with corruption and torn-write debris planted in it —
// recovers every intact entry (served byte-identical, from disk),
// quarantines the corrupt one, and removes the debris.
func runCacheCrashRecovery(spec []byte, bad func(string, string)) {
	dir, err := os.MkdirTemp("", "rmsynd-chaos-cache-*")
	if err != nil {
		bad("setup", "mkdtemp: "+err.Error())
		return
	}
	defer os.RemoveAll(dir)

	// First life. The disk tier attaches asynchronously and only misses
	// write through, so wait for the attach before the first submission.
	srvA, tsA := newTestServer(server.Config{Workers: 2, CacheDir: dir})
	deadline := time.Now().Add(10 * time.Second)
	for srvA.Cache().Disk() == nil {
		if time.Now().After(deadline) {
			bad("persist", "first server never attached the persistent tier")
			tsA.Close()
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	first := post(tsA.Client(), tsA.URL, spec, nil)
	if verifiedResponse(first, bad, "first life") == nil {
		tsA.Close()
		return
	}
	if srvA.Cache().Disk().Len() == 0 {
		bad("persist", "miss did not write through to the persistent tier")
		tsA.Close()
		return
	}
	tsA.Close()

	// The crash aftermath: a corrupt sibling entry (bit flip) and torn
	// tmp debris, exactly what a kill -9 plus bad disk leaves behind.
	entries, _ := filepath.Glob(filepath.Join(dir, "sc-*.entry"))
	if len(entries) == 0 {
		bad("persist", "no entry files on disk after the first life")
		return
	}
	valid, rerr := os.ReadFile(entries[0])
	if rerr != nil {
		bad("setup", rerr.Error())
		return
	}
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0x20
	os.WriteFile(filepath.Join(dir, "sc-"+strings.Repeat("0", 40)+".entry"), corrupt, 0o644)
	os.WriteFile(filepath.Join(dir, "w-crash.tmp"), valid[:len(valid)/3], 0o644)

	// Second life: same directory. The scan must recover the intact
	// entry, quarantine the corrupt one, sweep the debris — and the
	// first submission must come back from disk, byte-identical.
	srvB, tsB := newTestServer(server.Config{Workers: 2, CacheDir: dir})
	defer tsB.Close()
	deadline = time.Now().Add(10 * time.Second)
	for srvB.Cache().Disk() == nil {
		if time.Now().After(deadline) {
			bad("persist", "restarted server never attached the persistent tier")
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := srvB.Cache().Disk().Stats()
	if st.ScanRecovered == 0 {
		bad("persist", "restart scan recovered nothing")
	}
	if st.Quarantined != 1 {
		bad("persist", fmt.Sprintf("scan quarantined %d files, want exactly the 1 corrupt one", st.Quarantined))
	}
	if debris, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(debris) != 0 {
		bad("persist", "torn tmp debris survived the restart scan")
	}
	warm := post(tsB.Client(), tsB.URL, spec, nil)
	if verifiedResponse(warm, bad, "warm restart") == nil {
		return
	}
	if warm.cache != "disk" {
		bad("persist", "restarted submission served from "+warm.cache+", want disk")
	}
	if !bytes.Equal(warm.body, first.body) {
		bad("persist", "disk-recovered body differs from the original miss")
	}
}

// runDrainUnderLoad: two-arm (basis race) requests in flight when the
// drain begins finish — cleanly or force-degraded within the grace —
// and the persistent cache directory is left with zero partially
// written or corrupt entries.
func runDrainUnderLoad(spec []byte, bad func(string, string)) {
	dir, err := os.MkdirTemp("", "rmsynd-chaos-drain-*")
	if err != nil {
		bad("setup", "mkdtemp: "+err.Error())
		return
	}
	defer os.RemoveAll(dir)

	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	srv, ts := newTestServer(server.Config{
		Workers:  2,
		CacheDir: dir,
		Hooks:    &server.Hooks{JobStart: func(string) { entered <- struct{}{}; <-release }},
	})
	defer ts.Close()

	// Two race requests in flight (distinct flow keys so they are
	// separate flights), parked at the pool.
	inflight := make(chan srvResp, 2)
	// One worker each so both fit the pool at once (the default grant
	// would claim the whole pool and park the second in the queue).
	for i, hdr := range []map[string]string{
		{"X-Rmsynd-Basis": "race", "X-Rmsynd-Workers": "1"},
		{"X-Rmsynd-Basis": "race", "X-Rmsynd-Workers": "1", "X-Rmsynd-Polarity": "positive"},
	} {
		h := hdr
		go func() { inflight <- post(ts.Client(), ts.URL, spec, h) }()
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			bad("drain", fmt.Sprintf("race request %d never started", i))
			return
		}
	}

	// SIGTERM equivalent: drain begins, the grace is short enough that
	// the parked flights are force-cancelled through the ladder.
	srv.BeginDrain()
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	// Hold the gate past the grace so Shutdown must force-cancel, then
	// let the flights run their (cancelled) course.
	time.Sleep(700 * time.Millisecond)
	once.Do(func() { close(release) })
	<-done

	for i := 0; i < 2; i++ {
		r := <-inflight
		resp := verifiedResponse(r, bad, fmt.Sprintf("drained race request %d", i))
		if resp == nil {
			continue
		}
		if len(resp.Degradations) == 0 {
			bad("truthful", "force-drained race flight reports no degradations")
		}
	}

	// The directory must hold no torn or corrupt entries: a fresh scan
	// quarantines nothing and leaves no debris behind.
	d, derr := sigcache.OpenDisk(dir, 0)
	if derr != nil {
		bad("persist", "post-drain scan failed: "+derr.Error())
		return
	}
	if st := d.Stats(); st.Quarantined != 0 {
		bad("persist", fmt.Sprintf("drain left %d corrupt cache entries", st.Quarantined))
	}
}
