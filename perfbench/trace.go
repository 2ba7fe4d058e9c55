package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one call the benchmark made into a layer's public function,
// recorded by the benchmark itself: the program carries no timers of its
// own. Spans of one circuit or request share Item.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Layer  string `json:"layer"`  // repo module: core, sisbase, verify, ...
	Name   string `json:"name"`   // the call, e.g. "core.Synthesize"
	Item   string `json:"item"`   // circuit name or request id
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil Tracer records
// nothing, so untraced runs pay one nil check per call.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span under parent and returns its id (0 when t is nil).
func (t *Tracer) Begin(parent int, layer, name, item string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Layer: layer, Name: name, Item: item, Start: now})
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Time runs fn inside a span and returns its wall time, which untraced
// runs need as well.
func (t *Tracer) Time(parent int, layer, name, item string, fn func()) time.Duration {
	id := t.Begin(parent, layer, name, item)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.End(id)
	return d
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON, creating the directory.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SelfTimes sums, per layer, each span's duration minus the part of its
// interval that its child spans cover. Children that overlap each other
// (concurrent calls) count once.
func SelfTimes(spans []Span) map[string]time.Duration {
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		self[s.Layer] += time.Duration(s.End - s.Start - covered(s, kids[s.ID]))
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, children []Span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total int64
	curS, curE := int64(0), int64(-1)
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}
