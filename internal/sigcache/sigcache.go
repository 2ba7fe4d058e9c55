package sigcache

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ErrFlightPanicked is what joiners of a flight observe when the
// leader's fn panicked: the flight is failed (never left hanging), the
// panic itself re-raises on the leader's goroutine only.
var ErrFlightPanicked = errors.New("sigcache: flight leader panicked")

// Entry is one cached synthesis result: the exact serialized response
// body served on the miss (hits replay it byte for byte).
type Entry struct {
	Body []byte // exact rmsynd/v1 response body bytes
}

func (e *Entry) size() int64 {
	return int64(len(e.Body)) + 64
}

// Source classifies how a GetOrDo call was served.
type Source int

// GetOrDo outcomes.
const (
	Miss      Source = iota // this call ran fn
	Hit                     // served from the in-memory tier
	Coalesced               // collapsed onto a concurrent identical call
	DiskHit                 // served (and promoted) from the disk tier
)

func (s Source) String() string {
	switch s {
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	case DiskHit:
		return "disk"
	}
	return "miss"
}

// flight is one in-progress computation all identical concurrent
// requests collapse onto.
type flight struct {
	done  chan struct{}
	entry *Entry
	err   error
}

// Cache is a bounded, concurrency-safe LRU of synthesis results with
// single-flight collapsing. The memory bound follows the repo's budget
// discipline: both an entry count and a byte total are capped, and
// inserting past either cap evicts least-recently-used entries first.
// An entry larger than the whole byte budget is never stored.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	ll         *list.List // front = most recently used
	items      map[string]*list.Element
	flights    map[string]*flight

	// disk, when set, is the persistent tier behind the memory LRU:
	// memory misses consult it before synthesizing, cacheable results
	// write through to it, and entries found there are promoted into
	// memory. Atomic because the server attaches it asynchronously
	// (the warm scan must not delay startup). See DiskStore for the
	// crash-safety contract.
	disk      atomic.Pointer[DiskStore]
	evictions atomic.Int64
}

type lruItem struct {
	key   string
	entry *Entry
}

// New returns a cache bounded to maxEntries entries and maxBytes total
// body bytes. Non-positive bounds fall back to defaults (1024 entries,
// 64 MiB).
func New(maxEntries int, maxBytes int64) *Cache {
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
		flights:    make(map[string]*flight),
	}
}

// Get returns the cached entry for key and promotes it, or nil.
func (c *Cache) Get(key string) *Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruItem).entry
	}
	return nil
}

// Put inserts (or replaces) the entry under key, evicting LRU entries
// until the bounds hold again, and writes through to the disk tier when
// one is attached. Entries bigger than the byte budget are dropped
// silently — the caller's result is unaffected, it just will not be a
// future hit.
func (c *Cache) Put(key string, e *Entry) {
	c.putMem(key, e)
	if d := c.disk.Load(); d != nil {
		d.Put(key, e)
	}
}

// putMem inserts into the memory LRU only — the promotion path for
// entries that just came *from* the disk tier, which rewriting would
// only churn.
func (c *Cache) putMem(key string, e *Entry) {
	if e == nil || e.size() > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		old := el.Value.(*lruItem)
		c.bytes += e.size() - old.entry.size()
		old.entry = e
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&lruItem{key: key, entry: e})
		c.bytes += e.size()
	}
	for c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes {
		el := c.ll.Back()
		if el == nil {
			break
		}
		it := el.Value.(*lruItem)
		c.ll.Remove(el)
		delete(c.items, it.key)
		c.bytes -= it.entry.size()
		c.evictions.Add(1)
	}
}

// SetDisk attaches a persistent tier. Safe to call while traffic is
// flowing — requests admitted before the attach simply miss to a
// synthesis, exactly as a memory-only cache would.
func (c *Cache) SetDisk(d *DiskStore) { c.disk.Store(d) }

// Disk returns the attached persistent tier, or nil.
func (c *Cache) Disk() *DiskStore { return c.disk.Load() }

// Evictions returns how many entries the memory LRU has evicted.
func (c *Cache) Evictions() int64 { return c.evictions.Load() }

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the current body-byte total.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// GetOrDo is the cache's request path. Under one lock acquisition it
// checks the store (storeKey; "" skips the lookup — the caller asked to
// bypass the cache), then the in-flight table (flightKey), and either
// joins an existing flight or becomes the leader of a new one.
//
//   - Hit: the stored entry is returned immediately.
//   - DiskHit: the leader found the entry in the persistent tier; it is
//     promoted into memory and published to joiners without running fn.
//   - Leader (Miss): fn runs on the calling goroutine — to completion,
//     regardless of ctx; fn carries its own deadline discipline. Its
//     result is published to every joiner, and stored under storeKey
//     when fn reports it cacheable. A panic in fn is re-raised on the
//     leader after the flight is failed, so joiners never deadlock and
//     the caller's containment boundary still sees the panic.
//   - Joiner (Coalesced): blocks until the leader publishes or ctx is
//     done, whichever is first.
//
// The single-flight guarantee: for one flightKey, concurrent GetOrDo
// calls run fn exactly once. Sequential calls rerun fn only if the
// entry was not cacheable or has been evicted.
func (c *Cache) GetOrDo(ctx context.Context, storeKey, flightKey string,
	fn func() (e *Entry, cacheable bool, err error)) (*Entry, Source, error) {
	c.mu.Lock()
	if storeKey != "" {
		if el, ok := c.items[storeKey]; ok {
			c.ll.MoveToFront(el)
			e := el.Value.(*lruItem).entry
			c.mu.Unlock()
			return e, Hit, nil
		}
	}
	if f, ok := c.flights[flightKey]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.entry, Coalesced, f.err
		case <-ctx.Done():
			return nil, Coalesced, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[flightKey] = f
	c.mu.Unlock()

	panicked := true
	defer func() {
		c.mu.Lock()
		delete(c.flights, flightKey)
		c.mu.Unlock()
		if panicked && f.err == nil {
			// fn panicked: fail the flight before the panic unwinds so
			// joiners wake with an error instead of a nil entry.
			f.err = ErrFlightPanicked
		}
		close(f.done)
	}()

	// Disk tier: the flight leader consults the persistent store before
	// synthesizing, so concurrent identical requests coalesce onto one
	// disk read exactly as they would onto one synthesis. A verified
	// entry is promoted into the memory LRU (not rewritten to disk).
	if d := c.disk.Load(); storeKey != "" && d != nil {
		if e := d.Get(storeKey); e != nil {
			panicked = false
			f.entry = e
			c.putMem(storeKey, e)
			return e, DiskHit, nil
		}
	}

	e, cacheable, err := fn()
	panicked = false
	f.entry, f.err = e, err
	if err == nil && cacheable && storeKey != "" {
		c.Put(storeKey, e)
	}
	return e, Miss, err
}
