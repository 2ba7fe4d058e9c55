package sigcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/network"
)

// buildSpec returns a named bench circuit's network.
func buildSpec(t *testing.T, name string) *network.Network {
	t.Helper()
	c, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("unknown bench circuit %q", name)
	}
	return c.Build()
}

func TestSignatureStableAcrossRebuilds(t *testing.T) {
	a := Signature(buildSpec(t, "f2"), 0)
	b := Signature(buildSpec(t, "f2"), 0)
	if a != b {
		t.Fatalf("signature not stable: %s vs %s", a, b)
	}
	if !strings.HasPrefix(a, "f:") {
		t.Fatalf("small circuit should get a functional signature, got %s", a)
	}
	if c := Signature(buildSpec(t, "adr4"), 0); c == a {
		t.Fatalf("distinct circuits share a signature")
	}
}

// TestSignatureFunctionalIdentity: textually/structurally different
// networks computing the same named functions must share a signature.
func TestSignatureFunctionalIdentity(t *testing.T) {
	mk := func(redundant bool) *network.Network {
		n := network.New("eq")
		a := n.AddPI("a")
		b := n.AddPI("b")
		var g int
		if redundant {
			// (a AND b) OR (b AND a) with a double negation on top.
			g1 := n.AddGate(network.And, a, b)
			g2 := n.AddGate(network.And, b, a)
			or := n.AddGate(network.Or, g1, g2)
			g = n.AddGate(network.Not, n.AddGate(network.Not, or))
		} else {
			g = n.AddGate(network.And, a, b)
		}
		n.AddPO("y", g)
		return n
	}
	if s1, s2 := Signature(mk(false), 0), Signature(mk(true), 0); s1 != s2 {
		t.Fatalf("functionally identical specs differ: %s vs %s", s1, s2)
	}
	// Renaming a PO is an interface change: must NOT hit.
	other := mk(false)
	other.POs[0].Name = "z"
	if Signature(mk(false), 0) == Signature(other, 0) {
		t.Fatalf("renamed PO shares a signature")
	}
}

// TestSignatureKeysModelName: adr4 and radd compute the same functions
// over the same PI and PO names, but the served body embeds the model
// name, so the two must not share a signature under either scheme.
func TestSignatureKeysModelName(t *testing.T) {
	adr4, radd := buildSpec(t, "adr4"), buildSpec(t, "radd")
	for _, nodeCap := range []int{0, 1} {
		if Signature(adr4, nodeCap) == Signature(radd, nodeCap) {
			t.Errorf("node cap %d: adr4 and radd share a signature", nodeCap)
		}
	}
	renamed := buildSpec(t, "adr4")
	renamed.Name = "radd"
	if Signature(renamed, 0) != Signature(radd, 0) {
		t.Errorf("adr4 renamed to radd should share radd's functional signature")
	}
}

// TestSignatureStructuralFallback: an impossible node cap forces the
// structural scheme, which must still be stable and prefix-distinct.
func TestSignatureStructuralFallback(t *testing.T) {
	spec := buildSpec(t, "adr4")
	s := Signature(spec, 1)
	if !strings.HasPrefix(s, "s:") {
		t.Fatalf("node cap 1 should force the structural scheme, got %s", s)
	}
	if s2 := Signature(buildSpec(t, "adr4"), 1); s2 != s {
		t.Fatalf("structural signature not stable: %s vs %s", s, s2)
	}
	// The spec must come back unmutated (Canonical builds a fresh copy).
	if got := Signature(spec, 0); !strings.HasPrefix(got, "f:") {
		t.Fatalf("spec mutated by structural pass: %s", got)
	}
}

func TestCacheLRUBounds(t *testing.T) {
	c := New(3, 1<<20)
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("k%d", i), &Entry{Body: []byte("x")})
	}
	if c.Len() != 3 {
		t.Fatalf("entry bound not enforced: len=%d", c.Len())
	}
	if c.Get("k0") != nil || c.Get("k1") != nil {
		t.Fatalf("oldest entries not evicted")
	}
	if c.Get("k4") == nil {
		t.Fatalf("newest entry evicted")
	}

	// Byte bound: inserting a big entry evicts smaller ones.
	c2 := New(100, 300)
	c2.Put("a", &Entry{Body: bytes.Repeat([]byte("a"), 100)})
	c2.Put("b", &Entry{Body: bytes.Repeat([]byte("b"), 100)})
	if c2.Len() != 1 {
		t.Fatalf("byte bound not enforced: len=%d bytes=%d", c2.Len(), c2.Bytes())
	}
	// An entry over the whole budget is never stored.
	c2.Put("huge", &Entry{Body: bytes.Repeat([]byte("h"), 1000)})
	if c2.Get("huge") != nil {
		t.Fatalf("over-budget entry stored")
	}
}

// TestCacheConcurrentSingleFlight is the required concurrent-correctness
// test: N goroutines hammer the cache with identical and distinct specs
// under -race; each signature must synthesize exactly once, and every
// response body — cached or fresh — must be byte-identical to an
// independently synthesized reference.
func TestCacheConcurrentSingleFlight(t *testing.T) {
	circuits := []string{"f2", "cm82a", "z4ml"}
	const goroutinesPer = 8

	// Fresh references, synthesized outside the cache.
	reference := make(map[string][]byte)
	for _, name := range circuits {
		reference[name] = synthBody(t, buildSpec(t, name))
	}

	cache := New(64, 1<<20)
	synthCount := make(map[string]*atomic.Int64)
	keys := make(map[string]string)
	for _, name := range circuits {
		synthCount[name] = new(atomic.Int64)
		keys[name] = Signature(buildSpec(t, name), 0)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	type got struct {
		name string
		body []byte
		src  Source
	}
	results := make(chan got, len(circuits)*goroutinesPer)
	for _, name := range circuits {
		for g := 0; g < goroutinesPer; g++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				<-start
				key := keys[name]
				e, src, err := cache.GetOrDo(context.Background(), key, key, func() (*Entry, bool, error) {
					synthCount[name].Add(1)
					return &Entry{Body: synthBody(t, buildSpec(t, name))}, true, nil
				})
				if err != nil {
					t.Errorf("%s: GetOrDo: %v", name, err)
					return
				}
				results <- got{name, e.Body, src}
			}(name)
		}
	}
	close(start)
	wg.Wait()
	close(results)

	for _, name := range circuits {
		if n := synthCount[name].Load(); n != 1 {
			t.Errorf("%s: synthesized %d times, want exactly 1 (single-flight)", name, n)
		}
	}
	misses := map[string]int{}
	for r := range results {
		if !bytes.Equal(r.body, reference[r.name]) {
			t.Errorf("%s: cached/coalesced body differs from fresh synthesis (src=%v)", r.name, r.src)
		}
		if r.src == Miss {
			misses[r.name]++
		}
	}
	for _, name := range circuits {
		if misses[name] != 1 {
			t.Errorf("%s: %d misses, want exactly 1 (others hit or coalesced)", name, misses[name])
		}
		// A late, sequential call must be a pure hit.
		if _, src, _ := cache.GetOrDo(context.Background(), keys[name], keys[name], func() (*Entry, bool, error) {
			t.Errorf("%s: post-flight call re-synthesized", name)
			return nil, false, nil
		}); src != Hit {
			t.Errorf("%s: post-flight call: src=%v, want Hit", name, src)
		}
	}
}

// TestGetOrDoUncacheableAndBypass: a non-cacheable flight result must
// not become a hit, and storeKey=="" must skip the read path.
func TestGetOrDoUncacheableAndBypass(t *testing.T) {
	cache := New(8, 1<<20)
	runs := 0
	fn := func() (*Entry, bool, error) {
		runs++
		return &Entry{Body: []byte("degraded")}, false, nil
	}
	for i := 0; i < 2; i++ {
		if _, src, err := cache.GetOrDo(context.Background(), "k", "k", fn); err != nil || src != Miss {
			t.Fatalf("call %d: src=%v err=%v, want Miss", i, src, err)
		}
	}
	if runs != 2 {
		t.Fatalf("uncacheable result served from cache: runs=%d", runs)
	}
	cache.Put("k", &Entry{Body: []byte("clean")})
	if _, src, _ := cache.GetOrDo(context.Background(), "", "k2", func() (*Entry, bool, error) {
		return &Entry{Body: []byte("fresh")}, true, nil
	}); src != Miss {
		t.Fatalf("bypass read still hit: src=%v", src)
	}
}

// TestGetOrDoLeaderPanic: a panic in fn re-raises on the leader and
// fails (never hangs) any joiners. The joiner may lose the scheduling
// race and arrive after the flight is gone (becoming a fresh leader);
// that run proves nothing, so it is detected and retried.
func TestGetOrDoLeaderPanic(t *testing.T) {
	for attempt := 0; attempt < 20; attempt++ {
		cache := New(8, 1<<20)
		inFn := make(chan struct{})
		release := make(chan struct{})
		leaderPanic := make(chan any, 1)
		go func() {
			defer func() { leaderPanic <- recover() }()
			cache.GetOrDo(context.Background(), "k", "k", func() (*Entry, bool, error) {
				close(inFn)
				<-release
				panic("boom")
			})
		}()
		<-inFn
		joined := make(chan error, 1)
		missed := make(chan struct{})
		go func() {
			_, _, err := cache.GetOrDo(context.Background(), "k", "k", func() (*Entry, bool, error) {
				close(missed) // ran fn => arrived after the flight ended
				return nil, false, nil
			})
			joined <- err
		}()
		time.Sleep(10 * time.Millisecond) // let the joiner park on the flight
		close(release)
		if pv := <-leaderPanic; pv == nil {
			t.Fatalf("leader panic did not propagate")
		}
		if cache.Get("k") != nil {
			t.Fatalf("panicked flight left a cache entry")
		}
		err := <-joined
		select {
		case <-missed:
			continue // joiner never joined; try again
		default:
		}
		if !errors.Is(err, ErrFlightPanicked) {
			t.Fatalf("joiner error = %v, want ErrFlightPanicked", err)
		}
		return
	}
	t.Fatalf("joiner never joined the panicked flight in 20 attempts")
}

// synthBody is the test's stand-in for the service's serialized
// response: the BLIF text of a deterministic synthesis run.
func synthBody(t *testing.T, spec *network.Network) []byte {
	t.Helper()
	opt := core.DefaultOptions()
	opt.Workers = 2
	res, err := core.Synthesize(context.Background(), spec, opt)
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	var b bytes.Buffer
	if err := res.Network.WriteBLIF(&b); err != nil {
		t.Fatalf("WriteBLIF: %v", err)
	}
	return b.Bytes()
}
