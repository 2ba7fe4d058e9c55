// Package obs is the zero-dependency observability layer of the
// synthesis pipeline: a set of counter groups that the decision-diagram
// managers, the polarity search, the factoring rules, and the budget
// feed while a run executes, plus a plain-value Snapshot for reporting
// (the `rmsyn -stats-json` report and the `rmbench` benchmark artifact
// are built from it).
//
// # Disabled cost
//
// Every counter group is used through a possibly-nil pointer in the
// style of core.ProbeHooks: all methods are safe on a nil receiver and
// return immediately, so an uninstrumented run pays one nil check per
// probe site and allocates nothing (asserted by testing.AllocsPerRun in
// the tests). Production call sites never construct a Collector unless
// the caller asked for stats.
//
// # Concurrency and determinism
//
// Counters are atomic: the per-output derivation fan-out of
// core.Synthesize runs on a worker pool, and all workers feed the same
// groups. Every metric is defined so its value is independent of the
// worker count: per-manager counts are deterministic because managers
// are per-output, and the aggregate is a sum/max over the same set of
// outputs regardless of scheduling. Wall-clock spans (recorded by core,
// not here) are the only nondeterministic fields of a report.
package obs

import "sync/atomic"

// DD aggregates decision-diagram table statistics: unique-table
// (hash-cons) and computed-table (ITE/XOR memo) hits and misses, a
// rehash count, and the peak node count. One DD instance serves a
// whole diagram class (all BDD managers of a run, or all OFDD
// managers), so per-output managers feed the same group.
type DD struct {
	uniqueHits   atomic.Int64
	uniqueMisses atomic.Int64
	opHits       atomic.Int64
	opMisses     atomic.Int64
	rehashes     atomic.Int64
	peakNodes    atomic.Int64
}

// UniqueHit counts a unique-table lookup that found an existing node.
func (d *DD) UniqueHit() {
	if d == nil {
		return
	}
	d.uniqueHits.Add(1)
}

// UniqueMiss counts a unique-table miss (a fresh node allocation).
// nodes is the manager's node count after the allocation: reaching a
// power of two is counted as a rehash — from 128 nodes on, exactly when
// the BDD unique table doubles; for the OFDD's Go-map table, a
// deterministic proxy for its growth — and the peak node count is
// advanced.
func (d *DD) UniqueMiss(nodes int) {
	if d == nil {
		return
	}
	d.uniqueMisses.Add(1)
	n := int64(nodes)
	if n > 0 && n&(n-1) == 0 {
		d.rehashes.Add(1)
	}
	for {
		p := d.peakNodes.Load()
		if n <= p || d.peakNodes.CompareAndSwap(p, n) {
			return
		}
	}
}

// OpHit counts a computed-table hit (memoized ITE or XOR result).
func (d *DD) OpHit() {
	if d == nil {
		return
	}
	d.opHits.Add(1)
}

// OpMiss counts a computed-table miss (one real apply step).
func (d *DD) OpMiss() {
	if d == nil {
		return
	}
	d.opMisses.Add(1)
}

// DDStats is the plain-value snapshot of a DD group.
type DDStats struct {
	UniqueHits   int64 `json:"unique_hits"`
	UniqueMisses int64 `json:"unique_misses"`
	OpHits       int64 `json:"op_hits"`
	OpMisses     int64 `json:"op_misses"`
	Rehashes     int64 `json:"rehashes"`
	PeakNodes    int64 `json:"peak_nodes"`
	// UniqueHitRate and OpHitRate are hits/(hits+misses), 0 when idle.
	UniqueHitRate float64 `json:"unique_hit_rate"`
	OpHitRate     float64 `json:"op_hit_rate"`
}

func rate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Snapshot captures the group's current values (zero on nil).
func (d *DD) Snapshot() DDStats {
	if d == nil {
		return DDStats{}
	}
	s := DDStats{
		UniqueHits:   d.uniqueHits.Load(),
		UniqueMisses: d.uniqueMisses.Load(),
		OpHits:       d.opHits.Load(),
		OpMisses:     d.opMisses.Load(),
		Rehashes:     d.rehashes.Load(),
		PeakNodes:    d.peakNodes.Load(),
	}
	s.UniqueHitRate = rate(s.UniqueHits, s.UniqueMisses)
	s.OpHitRate = rate(s.OpHits, s.OpMisses)
	return s
}

// Factor counts Section 3 rule applications during factoring: the
// reduction rules (a)-(c) at XOR operand lists, the common-factor
// extractions (d) at XOR level and (e) at OR level, rule-rewrite passes,
// and the cross-output divisor-registry hits of the cube method.
type Factor struct {
	ruleA       atomic.Int64
	ruleB       atomic.Int64
	ruleC       atomic.Int64
	ruleD       atomic.Int64
	ruleE       atomic.Int64
	passes      atomic.Int64
	divisorHits atomic.Int64
}

// RuleA counts one firing of reduction rule (a), A ⊕ AB = A·B̄
// (direct or spread form).
func (f *Factor) RuleA() {
	if f == nil {
		return
	}
	f.ruleA.Add(1)
}

// RuleB counts one firing of reduction rule (b), X ⊕ Y ⊕ XY = X + Y.
func (f *Factor) RuleB() {
	if f == nil {
		return
	}
	f.ruleB.Add(1)
}

// RuleC counts one firing of reduction rule (c), AB ⊕ B̄ = A + B̄.
func (f *Factor) RuleC() {
	if f == nil {
		return
	}
	f.ruleC.Add(1)
}

// RuleD counts one common-factor extraction at an XOR operand list
// (factorization rule (d) at expression level).
func (f *Factor) RuleD() {
	if f == nil {
		return
	}
	f.ruleD.Add(1)
}

// RuleE counts one common-factor extraction at an OR operand list
// (factorization rule (e)).
func (f *Factor) RuleE() {
	if f == nil {
		return
	}
	f.ruleE.Add(1)
}

// Pass counts one whole rule-rewrite pass over an expression.
func (f *Factor) Pass() {
	if f == nil {
		return
	}
	f.passes.Add(1)
}

// DivisorHit counts one successful division by a registered cross-output
// divisor (or a pair-XOR divisor) in the cube method.
func (f *Factor) DivisorHit() {
	if f == nil {
		return
	}
	f.divisorHits.Add(1)
}

// FactorStats is the plain-value snapshot of a Factor group.
type FactorStats struct {
	RuleA       int64 `json:"rule_a"`
	RuleB       int64 `json:"rule_b"`
	RuleC       int64 `json:"rule_c"`
	RuleD       int64 `json:"rule_d"`
	RuleE       int64 `json:"rule_e"`
	Passes      int64 `json:"passes"`
	DivisorHits int64 `json:"divisor_hits"`
}

// Snapshot captures the group's current values (zero on nil).
func (f *Factor) Snapshot() FactorStats {
	if f == nil {
		return FactorStats{}
	}
	return FactorStats{
		RuleA:       f.ruleA.Load(),
		RuleB:       f.ruleB.Load(),
		RuleC:       f.ruleC.Load(),
		RuleD:       f.ruleD.Load(),
		RuleE:       f.ruleE.Load(),
		Passes:      f.passes.Load(),
		DivisorHits: f.divisorHits.Load(),
	}
}

// Search tracks one output's polarity-search progress: candidate
// polarity vectors evaluated, strict improvements accepted, and the
// final best cube/literal counts.
type Search struct {
	candidates   atomic.Int64
	improvements atomic.Int64
	bestCubes    atomic.Int64
	bestLits     atomic.Int64
}

// Candidate counts one polarity vector evaluated.
func (s *Search) Candidate() {
	if s == nil {
		return
	}
	s.candidates.Add(1)
}

// Improved counts one accepted strict improvement of the best-so-far
// form.
func (s *Search) Improved() {
	if s == nil {
		return
	}
	s.improvements.Add(1)
}

// SetBest records the search result's cube and literal counts.
func (s *Search) SetBest(cubes, lits int) {
	if s == nil {
		return
	}
	s.bestCubes.Store(int64(cubes))
	s.bestLits.Store(int64(lits))
}

// SearchStats is the plain-value snapshot of a Search group.
type SearchStats struct {
	Candidates   int64 `json:"candidates"`
	Improvements int64 `json:"improvements"`
	BestCubes    int64 `json:"best_cubes"`
	BestLits     int64 `json:"best_lits"`
}

// Snapshot captures the group's current values (zero on nil).
func (s *Search) Snapshot() SearchStats {
	if s == nil {
		return SearchStats{}
	}
	return SearchStats{
		Candidates:   s.candidates.Load(),
		Improvements: s.improvements.Load(),
		BestCubes:    s.bestCubes.Load(),
		BestLits:     s.bestLits.Load(),
	}
}

// Arbiter counts the per-cone basis arbitration of the combined
// GF(2)/SOP flow: predictor verdicts, cones that ran both arms, per-cone
// arm wins, and overrides (an arm failure absorbed by its sibling's
// verified result instead of the degradation ladder). The predict phase
// and selection are sequential, so every counter is deterministic at any
// worker count.
type Arbiter struct {
	predXor, predSop, predHedge atomic.Int64
	hedges                      atomic.Int64
	winsXor, winsSop            atomic.Int64
	overrides                   atomic.Int64
}

// Prediction counts one predictor verdict ("xor", "sop", or "hedge").
func (a *Arbiter) Prediction(verdict string) {
	if a == nil {
		return
	}
	switch verdict {
	case "xor":
		a.predXor.Add(1)
	case "sop":
		a.predSop.Add(1)
	case "hedge":
		a.predHedge.Add(1)
	}
}

// BothArms counts one cone routed to both arms (reported as "hedges").
func (a *Arbiter) BothArms() {
	if a == nil {
		return
	}
	a.hedges.Add(1)
}

// ArmWin counts the selected arm of a two-arm cone ("xor" or "sop").
func (a *Arbiter) ArmWin(basis string) {
	if a == nil {
		return
	}
	switch basis {
	case "xor":
		a.winsXor.Add(1)
	case "sop":
		a.winsSop.Add(1)
	}
}

// Override counts one arm failure absorbed by the sibling arm's result.
func (a *Arbiter) Override() {
	if a == nil {
		return
	}
	a.overrides.Add(1)
}

// ArbiterStats is the plain-value snapshot of an Arbiter group.
type ArbiterStats struct {
	PredXor   int64 `json:"pred_xor"`
	PredSop   int64 `json:"pred_sop"`
	PredHedge int64 `json:"pred_hedge"`
	Hedges    int64 `json:"hedges"`
	WinsXor   int64 `json:"wins_xor"`
	WinsSop   int64 `json:"wins_sop"`
	Overrides int64 `json:"overrides"`
}

// Snapshot captures the group's current values (zero on nil).
func (a *Arbiter) Snapshot() ArbiterStats {
	if a == nil {
		return ArbiterStats{}
	}
	return ArbiterStats{
		PredXor:   a.predXor.Load(),
		PredSop:   a.predSop.Load(),
		PredHedge: a.predHedge.Load(),
		Hedges:    a.hedges.Load(),
		WinsXor:   a.winsXor.Load(),
		WinsSop:   a.winsSop.Load(),
		Overrides: a.overrides.Load(),
	}
}

// Collector gathers every counter group of one synthesis run. A nil
// Collector is valid everywhere and disables collection; the accessors
// below propagate the nil so call sites stay branch-free.
type Collector struct {
	bdd     DD
	ofdd    DD
	factor  Factor
	arbiter Arbiter
	outputs []Search
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// BDD returns the shared-BDD counter group (nil when c is nil).
func (c *Collector) BDD() *DD {
	if c == nil {
		return nil
	}
	return &c.bdd
}

// OFDD returns the OFDD counter group shared by every per-output and
// factor-phase OFDD manager (nil when c is nil).
func (c *Collector) OFDD() *DD {
	if c == nil {
		return nil
	}
	return &c.ofdd
}

// Factor returns the rule-application counter group (nil when c is nil).
func (c *Collector) Factor() *Factor {
	if c == nil {
		return nil
	}
	return &c.factor
}

// Arbiter returns the basis-arbitration counter group (nil when c is
// nil).
func (c *Collector) Arbiter() *Arbiter {
	if c == nil {
		return nil
	}
	return &c.arbiter
}

// StartOutputs sizes the per-output search groups. Call once, before
// the derivation fan-out starts; the groups themselves are then safe
// for concurrent use.
func (c *Collector) StartOutputs(n int) {
	if c == nil {
		return
	}
	c.outputs = make([]Search, n)
}

// Output returns output i's polarity-search group (nil when c is nil or
// StartOutputs has not sized the slice to cover i).
func (c *Collector) Output(i int) *Search {
	if c == nil || i < 0 || i >= len(c.outputs) {
		return nil
	}
	return &c.outputs[i]
}

// Stats is the deterministic portion of a run report: every field is
// bit-identical for any worker count (see the package comment).
type Stats struct {
	BDD     DDStats       `json:"bdd"`
	OFDD    DDStats       `json:"ofdd"`
	Factor  FactorStats   `json:"factor"`
	Arbiter ArbiterStats  `json:"arbiter"`
	Outputs []SearchStats `json:"polarity_search"`
}

// Snapshot captures the collector's current values. Safe on nil (zero
// Stats) and while workers are still feeding the groups, though callers
// normally snapshot after the run completes.
func (c *Collector) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	s := Stats{
		BDD:     c.bdd.Snapshot(),
		OFDD:    c.ofdd.Snapshot(),
		Factor:  c.factor.Snapshot(),
		Arbiter: c.arbiter.Snapshot(),
	}
	if len(c.outputs) > 0 {
		s.Outputs = make([]SearchStats, len(c.outputs))
		for i := range c.outputs {
			s.Outputs[i] = c.outputs[i].Snapshot()
		}
	}
	return s
}
