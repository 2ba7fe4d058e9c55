// Package redund implements the redundancy analysis of Section 4 of the
// paper: XOR gates whose input patterns are uncontrollable or unobservable
// are reduced to single OR/AND gates (Properties 3-7), and redundant
// fanins of AND gates are removed afterwards, all driven by simulating a
// small, decidable set of primary-input patterns derived from the FPRM
// cubes:
//
//	AZ  — all literals 0 (Property 1: every XOR gate sees (0,0))
//	AO  — all literals 1
//	OC  — one pattern per FPRM cube: exactly its literals set to 1
//	SA1 — per cube, per literal: the OC pattern with that literal at 0
//	UN  — cube-support union patterns for the paper's parity-enumeration
//	      step (deciding controllability of input patterns the OC set
//	      does not produce)
//
// A candidate reduction must leave every primary output unchanged on every
// pattern (this subsumes the controllability and observability conditions
// of Properties 3-7 on the pattern set). Because the paper's §4 parity
// enumeration is published only as a sketch, Options.Verify (default on in
// the synthesis flow) additionally confirms each candidate with an exact
// BDD equivalence check before committing it; Options.Verify=false runs
// the pure pattern-based method.
package redund

import (
	"repro/internal/bdd"
	"repro/internal/budget"
	"repro/internal/cube"
	"repro/internal/fprm"
	"repro/internal/network"
)

// Options configure redundancy removal.
type Options struct {
	// Budget, when non-nil, meters the pass: the verification BDD manager
	// is budgeted (exhaustion unwinds with panic(*budget.Err); the caller
	// must wrap Remove in budget.Guard and treat a trip as "pass skipped",
	// restoring the network from a snapshot), and the fixpoint loop polls
	// the budget between passes, stopping gracefully when exhausted.
	Budget *budget.Budget
	// Form is the FPRM source of a single-output network; its cubes
	// generate the pattern sets. Provide either Form or Forms.
	Form *fprm.Form
	// Forms lists the per-output FPRM forms for multi-output networks;
	// when non-nil it is used instead of Form.
	Forms []*fprm.Form
	// Verify confirms every candidate reduction with a BDD equivalence
	// check against the original network before committing it.
	Verify bool
	// MaxOCPatterns caps the per-cube pattern sets (0 = 4096). Very large
	// FPRM forms (e.g. wide adder carries) are sampled.
	MaxOCPatterns int
	// MaxUnionPatterns caps the cube-support union set (0 = 1024).
	MaxUnionPatterns int
	// MaxPasses bounds the backward-propagation fixpoint (0 = 4).
	MaxPasses int
}

// Result reports what the pass did.
type Result struct {
	XorToOr       int // Property 3 reductions
	XorToAnd      int // Property 4 reductions (either phase)
	FaninsRemoved int // untestable s-a-1 fanins removed
	ConstFolded   int // untestable s-a-0 gates forced to constant
	Patterns      int // primary-input patterns simulated
	Candidates    int // reductions proposed by the pattern analysis
	Reverted      int // candidates rejected by the exact verification
	Passes        int // fixpoint iterations executed (including the final no-change pass)
	// BudgetCut reports the fixpoint loop stopped early on an exhausted
	// budget; the reductions committed before the cut are kept.
	BudgetCut bool
}

func (o Options) maxOC() int {
	if o.MaxOCPatterns > 0 {
		return o.MaxOCPatterns
	}
	return 4096
}

func (o Options) maxUnion() int {
	if o.MaxUnionPatterns > 0 {
		return o.MaxUnionPatterns
	}
	return 1024
}

func (o Options) maxPasses() int {
	if o.MaxPasses > 0 {
		return o.MaxPasses
	}
	return 4
}

func (o Options) forms() []*fprm.Form {
	if o.Forms != nil {
		return o.Forms
	}
	return []*fprm.Form{o.Form}
}

// BuildPatterns generates the Section 4 pattern sets for the given FPRM
// forms as PI assignments (bit v = value of input v).
func BuildPatterns(forms []*fprm.Form, maxOC, maxUnion int) []cube.BitSet {
	if len(forms) == 0 {
		return nil
	}
	n := forms[0].NumVars
	var patterns []cube.BitSet
	seen := make(map[string]bool)
	// Literal values are translated to PI values through the polarity of
	// the form the cube came from (outputs may use different vectors).
	add := func(lits cube.BitSet, pol []bool) {
		assign := cube.NewBitSet(n)
		for v := 0; v < n; v++ {
			if lits.Has(v) == pol[v] {
				assign.Set(v)
			}
		}
		k := assign.Key()
		if !seen[k] {
			seen[k] = true
			patterns = append(patterns, assign)
		}
	}

	// AZ and AO per polarity vector.
	ao := cube.NewBitSet(n)
	for v := 0; v < n; v++ {
		ao.Set(v)
	}
	for _, f := range forms {
		add(cube.NewBitSet(n), f.Polarity)
		add(ao, f.Polarity)
	}

	// OC and SA1 under the cap. The budget counts emitted patterns, not
	// cubes: a k-literal cube contributes its OC pattern plus k SA1
	// patterns, and wide-support functions would otherwise explode the
	// set (the paper notes the PI pattern set "needs further improvement
	// to synthesize large, multioutput functions more efficiently").
	budget := maxOC
	for _, f := range forms {
		if budget <= 0 {
			break
		}
		for _, c := range f.Cubes.Cubes {
			if budget <= 0 {
				break
			}
			budget--
			add(c.Vars.Clone(), f.Polarity)
			c.Vars.ForEach(func(v int) {
				if budget <= 0 {
					return
				}
				budget--
				p := c.Vars.Clone()
				p.Clear(v)
				add(p, f.Polarity)
			})
		}
	}

	// Union lattice: breadth-first closure of cube-support unions, per
	// form (the parity argument of Section 4 is per output function).
	perForm := maxUnion / len(forms)
	if perForm < 64 {
		perForm = 64
	}
	maxUnion = perForm
	for _, f := range forms {
		var supports []cube.BitSet
		for _, c := range f.Cubes.Cubes {
			supports = append(supports, c.Vars)
			if len(supports) > 256 {
				break
			}
		}
		unionSeen := make(map[string]bool)
		var queue []cube.BitSet
		for _, s := range supports {
			k := s.Key()
			if !unionSeen[k] {
				unionSeen[k] = true
				queue = append(queue, s.Clone())
			}
		}
		for qi := 0; qi < len(queue) && len(queue) < maxUnion; qi++ {
			for _, s := range supports {
				if len(queue) >= maxUnion {
					break
				}
				u := queue[qi].Clone()
				u.UnionWith(s)
				k := u.Key()
				if !unionSeen[k] {
					unionSeen[k] = true
					queue = append(queue, u)
				}
			}
		}
		for _, q := range queue {
			add(q, f.Polarity)
		}
	}
	return patterns
}

// engine carries the mutable state of one removal run. Gate values on the
// pattern set are cached per batch; candidate rewrites are screened by
// resimulating only the rewritten gate's transitive fanout cone.
type engine struct {
	net      *network.Network
	patterns []cube.BitSet
	piWords  [][]uint64 // [batch][pi] packed pattern words
	vals     [][]uint64 // [batch][gate] cached values for the current net
	order    []int      // cached topological order
	fanouts  [][]int
	poIdx    map[int][]int // gate -> PO indices it drives
	bm       *bdd.Manager
	spec     []bdd.Ref
	verify   bool
	scratch  []uint64
	res      Result
}

// Remove reduces redundant XOR gates and AND fanins in net per Section 4.
// The network is modified in place; the function is preserved (guaranteed
// when Verify is set, and by the pattern analysis otherwise).
func Remove(net *network.Network, opt Options) Result {
	e := &engine{net: net, verify: opt.Verify}
	e.patterns = BuildPatterns(opt.forms(), opt.maxOC(), opt.maxUnion())
	e.res.Patterns = len(e.patterns)
	e.packPatterns()
	e.refresh()
	if opt.Verify {
		e.bm = bdd.New(len(net.PIs))
		e.bm.SetBudget(opt.Budget)
		e.spec = net.ToBDDs(e.bm)
	}

	for pass := 0; pass < opt.maxPasses(); pass++ {
		if opt.Budget.Exceeded() != nil {
			// Out of budget: keep the reductions committed so far, and
			// report the cut so the caller's degradation trail stays
			// truthful about the partially-run pass.
			e.res.BudgetCut = true
			break
		}
		e.res.Passes++
		changed := e.xorPass()
		changed = e.faninPass() || changed
		if !changed {
			break
		}
	}
	net.Sweep()
	return e.res
}

// packPatterns splits patterns into 64-wide word batches per PI.
func (e *engine) packPatterns() {
	nPI := len(e.net.PIs)
	for base := 0; base < len(e.patterns); base += 64 {
		words := make([]uint64, nPI)
		for j := 0; j < 64 && base+j < len(e.patterns); j++ {
			p := e.patterns[base+j]
			for v := 0; v < nPI; v++ {
				if p.Has(v) {
					words[v] |= 1 << uint(j)
				}
			}
		}
		e.piWords = append(e.piWords, words)
	}
}

// refresh rebuilds the cached topological order, fanouts, PO index and
// all per-batch gate values for the current network structure.
func (e *engine) refresh() {
	e.order = e.net.TopoOrder()
	e.fanouts = e.net.Fanouts()
	e.poIdx = make(map[int][]int)
	for i, po := range e.net.POs {
		e.poIdx[po.Gate] = append(e.poIdx[po.Gate], i)
	}
	e.vals = make([][]uint64, len(e.piWords))
	for b, words := range e.piWords {
		e.vals[b] = e.net.Simulate(words)
	}
	if cap(e.scratch) < len(e.net.Gates) {
		e.scratch = make([]uint64, len(e.net.Gates))
	}
}

// cone returns the transitive fanout of gate id (including id), in
// topological order, under the current cached structure.
func (e *engine) cone(id int) []int {
	in := make(map[int]bool)
	in[id] = true
	var out []int
	for _, g := range e.order {
		if in[g] {
			out = append(out, g)
			for _, fo := range e.fanouts[g] {
				in[fo] = true
			}
		}
	}
	return out
}

// batchMask returns the valid-bit mask of batch b.
func (e *engine) batchMask(b int) uint64 {
	rem := len(e.patterns) - b*64
	if rem >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(rem) - 1
}

// screen reports whether the candidate rewrite of gate changed leaves
// every primary output unchanged on every pattern. Gates appended since
// the cached values were last refreshed — the candidate's new inverter,
// or an orphan a rejected candidate left behind that hash-consing hands
// back — have no cached value and are evaluated first. Only the fanout
// cone of the rewritten gate is resimulated; cached values are not
// modified.
func (e *engine) screen(changed int) bool {
	// Topological cone of `changed` over the pre-rewrite order (fanin
	// rewrites never create edges among old gates, so the cached order
	// remains valid; new gates only feed `changed` and are evaluated
	// first, from cached fanin values).
	fanouts := e.net.Fanouts()
	inCone := make(map[int]bool)
	inCone[changed] = true
	var coneList []int
	for _, g := range e.order {
		if inCone[g] {
			coneList = append(coneList, g)
			for _, fo := range fanouts[g] {
				inCone[fo] = true
			}
		}
	}
	scratch := e.scratch
	if cap(scratch) < len(e.net.Gates) {
		scratch = make([]uint64, len(e.net.Gates))
		e.scratch = scratch
	}
	scratch = scratch[:len(e.net.Gates)]
	var in []uint64
	for b := range e.piWords {
		vals := e.vals[b]
		fresh := len(vals) // first gate without a cached value
		read := func(f int) uint64 {
			if f >= fresh || inCone[f] {
				return scratch[f]
			}
			return vals[f]
		}
		evalInto := func(id int) {
			g := &e.net.Gates[id]
			in = in[:0]
			for _, f := range g.Fanins {
				in = append(in, read(f))
			}
			scratch[id] = network.EvalGateWord(g.Type, in)
		}
		for id := fresh; id < len(e.net.Gates); id++ {
			evalInto(id)
		}
		for _, id := range coneList {
			evalInto(id)
		}
		mask := e.batchMask(b)
		for _, id := range coneList {
			if pos, ok := e.poIdx[id]; ok && len(pos) > 0 {
				if (scratch[id]^vals[id])&mask != 0 {
					return false
				}
			}
		}
	}
	return true
}

// verified reports whether the current network is exactly equivalent to
// the specification (only called when verify is on).
func (e *engine) verified() bool {
	got := e.net.ToBDDs(e.bm)
	for i := range got {
		if got[i] != e.spec[i] {
			return false
		}
	}
	return true
}

// structural support per gate, as PI index sets.
func (e *engine) supports() []cube.BitSet {
	n := e.net
	sup := make([]cube.BitSet, len(n.Gates))
	piIdx := make(map[int]int)
	for i, id := range n.PIs {
		piIdx[id] = i
	}
	for _, id := range n.TopoOrder() {
		g := &n.Gates[id]
		s := cube.NewBitSet(len(n.PIs))
		if g.Type == network.PI {
			s.Set(piIdx[id])
		}
		for _, f := range g.Fanins {
			if sup[f] != nil {
				s.UnionWith(sup[f])
			}
		}
		sup[id] = s
	}
	return sup
}

// tryCandidate applies fn (which mutates gate `changed` and may append new
// gates), screens the change on the pattern set by cone resimulation, and
// optionally verifies exactly; on failure it calls undo. On success the
// cached values are refreshed. Returns whether the change was kept.
func (e *engine) tryCandidate(changed int, apply, undo func()) bool {
	e.res.Candidates++
	apply()
	if !e.screen(changed) {
		undo()
		return false
	}
	if e.verify && !e.verified() {
		e.res.Reverted++
		undo()
		return false
	}
	e.refresh()
	return true
}

// xorPass walks XOR gates from the outputs backward and reduces each to
// OR (Property 3) or AND-with-complement (Property 4) when the pattern
// analysis allows it. Returns whether anything changed.
func (e *engine) xorPass() bool {
	n := e.net
	order := n.TopoOrder()
	sup := e.supports()
	changed := false
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		g := &n.Gates[id]
		if g.Type != network.Xor || len(g.Fanins) != 2 {
			continue
		}
		a, b := g.Fanins[0], g.Fanins[1]
		// XOR gates over disjoint supports are never reducible (all four
		// input patterns controllable and observable, Section 4); this
		// includes the balanced output trees.
		if !sup[a].Intersects(sup[b]) {
			continue
		}
		// Observed input patterns over the pattern set guide which of the
		// three reductions to attempt first.
		seen := e.observedInputPatterns(id)
		type cand struct {
			t          network.GateType
			negA, negB bool
			blocks     uint8 // input pattern the reduction relies on missing
		}
		cands := []cand{
			{t: network.Or, blocks: 1 << 3},              // g+h needs (1,1) missing
			{t: network.And, negB: true, blocks: 1 << 1}, // g·h̄ needs (0,1) missing
			{t: network.And, negA: true, blocks: 1 << 2}, // ḡ·h needs (1,0) missing
		}
		for _, c := range cands {
			if seen&c.blocks != 0 {
				continue // pattern observed at the gate: reduction would misbehave
			}
			saved := network.Gate{ID: g.ID, Type: g.Type, Fanins: append([]int(nil), g.Fanins...)}
			cc := c
			ok := e.tryCandidate(id, func() {
				fa, fb := a, b
				if cc.negA {
					fa = n.AddGate(network.Not, a)
				}
				if cc.negB {
					fb = n.AddGate(network.Not, b)
				}
				gg := &n.Gates[id] // re-take: AddGate may have grown the slice
				gg.Type = cc.t
				gg.Fanins = []int{fa, fb}
			}, func() {
				gg := &n.Gates[id]
				gg.Type = saved.Type
				gg.Fanins = saved.Fanins
			})
			if ok {
				if c.t == network.Or {
					e.res.XorToOr++
				} else {
					e.res.XorToAnd++
				}
				changed = true
				break
			}
		}
	}
	return changed
}

// observedInputPatterns returns a bitmask over {00,01,10,11} of the input
// patterns of gate id occurring under the pattern set, read from the
// cached simulation values.
func (e *engine) observedInputPatterns(id int) uint8 {
	g := &e.net.Gates[id]
	a, b := g.Fanins[0], g.Fanins[1]
	var seen uint8
	for bi := range e.piWords {
		vals := e.vals[bi]
		mask := e.batchMask(bi)
		wa, wb := vals[a], vals[b]
		if ^wa & ^wb & mask != 0 {
			seen |= 1 << 0
		}
		if ^wa&wb&mask != 0 {
			seen |= 1 << 1
		}
		if wa & ^wb & mask != 0 {
			seen |= 1 << 2
		}
		if wa&wb&mask != 0 {
			seen |= 1 << 3
		}
	}
	return seen
}

// faninPass removes redundant fanins of AND/OR gates (untestable s-a-1 /
// s-a-0 wires, end of Section 4). Returns whether anything changed.
func (e *engine) faninPass() bool {
	n := e.net
	changed := false
	for _, id := range n.TopoOrder() {
		g := &n.Gates[id]
		if (g.Type != network.And && g.Type != network.Or) || len(g.Fanins) < 2 {
			continue
		}
		for fi := 0; fi < len(g.Fanins) && len(g.Fanins) > 2; fi++ {
			saved := append([]int(nil), g.Fanins...)
			if e.tryCandidate(id, func() {
				gg := &n.Gates[id]
				gg.Fanins = append(append([]int(nil), gg.Fanins[:fi]...), gg.Fanins[fi+1:]...)
			}, func() {
				gg := &n.Gates[id]
				gg.Fanins = saved
			}) {
				e.res.FaninsRemoved++
				changed = true
				fi--
			}
		}
		// Two-input gates: removing a fanin means the gate becomes a
		// buffer of the other input.
		if len(g.Fanins) == 2 {
			for fi := 0; fi < 2; fi++ {
				savedT := g.Type
				saved := append([]int(nil), g.Fanins...)
				other := g.Fanins[1-fi]
				if e.tryCandidate(id, func() {
					gg := &n.Gates[id]
					gg.Type = network.Buf
					gg.Fanins = []int{other}
				}, func() {
					gg := &n.Gates[id]
					gg.Type = savedT
					gg.Fanins = saved
				}) {
					e.res.FaninsRemoved++
					changed = true
					break
				}
			}
		}
		// Constant folding: an AND whose s-a-0 is untestable is constant 0
		// (dually OR / constant 1).
		if g.Type == network.And || g.Type == network.Or {
			savedT := g.Type
			saved := append([]int(nil), g.Fanins...)
			constT := network.Const0
			if g.Type == network.Or {
				constT = network.Const1
			}
			if e.tryCandidate(id, func() {
				gg := &n.Gates[id]
				gg.Type = constT
				gg.Fanins = nil
			}, func() {
				gg := &n.Gates[id]
				gg.Type = savedT
				gg.Fanins = saved
			}) {
				e.res.ConstFolded++
				changed = true
			}
		}
	}
	return changed
}
