package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/sigcache"
)

// metrics is the server's observability surface: request outcomes,
// admission pressure, cache effectiveness, and the aggregated pipeline
// counters from every request's obs.Collector. Everything is atomic so
// the hot path never takes the rendering lock.
type metrics struct {
	inflight atomic.Int64 // requests currently synthesizing
	shed     atomic.Int64 // requests refused with 429
	abandon  atomic.Int64 // clients gone before their flight finished

	cacheHit       atomic.Int64
	cacheMiss      atomic.Int64
	cacheCoalesced atomic.Int64
	cacheDiskHit   atomic.Int64 // served from the persistent tier (then promoted)

	degraded atomic.Int64 // responses with a non-empty degradation ladder
	panics   atomic.Int64 // panics contained by the request boundary

	diskOpenFailed atomic.Bool // persistent tier failed to open; memory-only

	// Aggregated pipeline counters (summed obs snapshots).
	bddUniqueHits, bddUniqueMisses atomic.Int64
	bddOpHits, bddOpMisses         atomic.Int64
	ofddUniqueHits, ofddOpHits     atomic.Int64
	factorRules, factorDivHits     atomic.Int64

	mu       sync.Mutex
	byCode   map[string]int64 // responses by error code ("" = success)
	draining atomic.Bool
}

func newMetrics() *metrics {
	return &metrics{byCode: make(map[string]int64)}
}

// outcome records one finished response under its error code ("" for a
// 200).
func (m *metrics) outcome(code string) {
	m.mu.Lock()
	m.byCode[code]++
	m.mu.Unlock()
}

// absorb folds one request's pipeline counters into the totals.
func (m *metrics) absorb(s obs.Stats) {
	m.bddUniqueHits.Add(s.BDD.UniqueHits)
	m.bddUniqueMisses.Add(s.BDD.UniqueMisses)
	m.bddOpHits.Add(s.BDD.OpHits)
	m.bddOpMisses.Add(s.BDD.OpMisses)
	m.ofddUniqueHits.Add(s.OFDD.UniqueHits)
	m.ofddOpHits.Add(s.OFDD.OpHits)
	m.factorRules.Add(s.Factor.RuleA + s.Factor.RuleB + s.Factor.RuleC + s.Factor.RuleD + s.Factor.RuleE)
	m.factorDivHits.Add(s.Factor.DivisorHits)
}

func (m *metrics) cache(src fmt.Stringer) {
	switch src.String() {
	case "hit":
		m.cacheHit.Add(1)
	case "coalesced":
		m.cacheCoalesced.Add(1)
	case "disk":
		m.cacheDiskHit.Add(1)
	default:
		m.cacheMiss.Add(1)
	}
}

// statsSnapshot carries the scrape-time samples that live outside the
// metrics struct — cache tiers and admission limiter — gathered by
// Server.snapshot so write stays a pure renderer.
type statsSnapshot struct {
	cacheLen     int
	cacheBytes   int64
	memEvictions int64
	disk         *sigcache.DiskStats // nil when no persistent tier is attached

	limEffective int
	limInSystem  int
	limMax       int
	limShrinks   int64
}

// write renders the Prometheus text exposition over the scrape-time
// snapshot.
func (m *metrics) write(w io.Writer, snap statsSnapshot) {
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	// The limiter's in-system count holds every admitted request,
	// queued or running.
	running := m.inflight.Load()
	queued := max(int64(snap.limInSystem)-running, 0)
	gauge("rmsynd_inflight", "requests currently synthesizing", running)
	gauge("rmsynd_queue_depth", "admitted requests waiting for workers", queued)
	drain := int64(0)
	if m.draining.Load() {
		drain = 1
	}
	gauge("rmsynd_draining", "1 while the server is draining after SIGTERM", drain)

	// Admission limiter: how many slots exist right now vs the static
	// ceiling, and how often the AIMD loop has cut capacity.
	gauge("rmsynd_admission_limit", "current effective in-system cap (AIMD-moved)", int64(snap.limEffective))
	gauge("rmsynd_admission_in_system", "requests currently holding an admission slot", int64(snap.limInSystem))
	gauge("rmsynd_admission_capacity", "static admission ceiling (workers+queue depth)", int64(snap.limMax))
	counter("rmsynd_admission_shrinks_total", "multiplicative decreases of the effective cap", snap.limShrinks)

	counter("rmsynd_shed_total", "requests refused with 429 at admission", m.shed.Load())
	counter("rmsynd_abandoned_total", "clients gone before their result was ready", m.abandon.Load())
	counter("rmsynd_degraded_total", "responses carrying a non-empty degradation ladder", m.degraded.Load())
	counter("rmsynd_panics_total", "panics contained by the request boundary", m.panics.Load())

	counter("rmsynd_cache_hits_total", "requests served from the in-memory result cache", m.cacheHit.Load())
	counter("rmsynd_cache_disk_hits_total", "requests served from the persistent cache tier", m.cacheDiskHit.Load())
	counter("rmsynd_cache_misses_total", "requests that ran a synthesis", m.cacheMiss.Load())
	counter("rmsynd_cache_coalesced_total", "requests collapsed onto an identical in-flight synthesis", m.cacheCoalesced.Load())
	counter("rmsynd_cache_evictions_total", "entries evicted from the in-memory result cache", snap.memEvictions)
	gauge("rmsynd_cache_entries", "result cache entries (memory tier)", int64(snap.cacheLen))
	gauge("rmsynd_cache_bytes", "result cache body bytes (memory tier)", snap.cacheBytes)
	diskFailed := int64(0)
	if m.diskOpenFailed.Load() {
		diskFailed = 1
	}
	gauge("rmsynd_cache_disk_open_failed", "1 when the persistent tier failed to open (running memory-only)", diskFailed)
	if d := snap.disk; d != nil {
		gauge("rmsynd_sigcache_disk_entries", "persistent cache entries", int64(d.Entries))
		gauge("rmsynd_sigcache_disk_bytes", "persistent cache bytes on disk", d.Bytes)
		counter("rmsynd_sigcache_disk_reads_total", "persistent tier reads that verified and served", d.Hits)
		counter("rmsynd_sigcache_disk_read_misses_total", "persistent tier lookups that missed", d.Misses)
		counter("rmsynd_sigcache_scan_recovered_total", "entries recovered by the startup scan", d.ScanRecovered)
		counter("rmsynd_sigcache_quarantined_total", "corrupt entries quarantined (scan or read time)", d.Quarantined)
		counter("rmsynd_sigcache_aborted_writes_total", "tmp debris from interrupted writes removed at scan", d.Aborted)
		counter("rmsynd_sigcache_disk_evictions_total", "persistent entries evicted by the byte bound", d.Evictions)
		counter("rmsynd_sigcache_write_errors_total", "persistent tier write failures (entry served uncached)", d.WriteErrors)
	}

	// Responses by code, stable order for scrape diffing.
	fmt.Fprintf(w, "# HELP rmsynd_responses_total responses by error code (code=\"ok\" for 200s)\n# TYPE rmsynd_responses_total counter\n")
	m.mu.Lock()
	codes := make([]string, 0, len(m.byCode))
	for c := range m.byCode {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		label := c
		if label == "" {
			label = "ok"
		}
		fmt.Fprintf(w, "rmsynd_responses_total{code=%q} %d\n", label, m.byCode[c])
	}
	m.mu.Unlock()

	counter("rmsynd_obs_bdd_unique_hits_total", "aggregated BDD unique-table hits", m.bddUniqueHits.Load())
	counter("rmsynd_obs_bdd_unique_misses_total", "aggregated BDD unique-table misses", m.bddUniqueMisses.Load())
	counter("rmsynd_obs_bdd_op_hits_total", "aggregated BDD op-cache hits", m.bddOpHits.Load())
	counter("rmsynd_obs_bdd_op_misses_total", "aggregated BDD op-cache misses", m.bddOpMisses.Load())
	counter("rmsynd_obs_ofdd_unique_hits_total", "aggregated OFDD unique-table hits", m.ofddUniqueHits.Load())
	counter("rmsynd_obs_ofdd_op_hits_total", "aggregated OFDD op-cache hits", m.ofddOpHits.Load())
	counter("rmsynd_obs_factor_rule_applications_total", "aggregated Section 3 rule applications", m.factorRules.Load())
	counter("rmsynd_obs_factor_divisor_hits_total", "aggregated divisor-registry hits", m.factorDivHits.Load())
}

// handleMetrics serves the Prometheus exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w, s.snapshot())
}
