// Package network provides the multilevel Boolean gate network used by the
// synthesis flows: an in-memory netlist of primitive gates (AND, OR, XOR
// and friends), with topological traversal, 64-way parallel bit
// simulation, structural cleanup (constant propagation, structural
// hashing), cost metrics, BDD extraction, and BLIF text I/O.
//
// The network is hash-consed at construction: AddGate canonicalizes its
// request (commutative fanins sorted, constants folded, idempotence and
// double-negation applied) and returns the existing gate on a structural
// hit, so an equivalent (type, fanins) gate is created exactly once — the
// same unique-table discipline package bdd applies to decision-diagram
// nodes. Strash, which runs every gate through the same rules, is the one
// repair pass for networks that were mutated in place (redundancy
// removal, functional merging, deserialization followed by editing). See
// DESIGN.md §12 for the invariants.
//
// The pre-technology-mapping cost metric follows the paper's convention:
// circuits are measured in 2-input AND/OR gates, an XOR counting as three
// AND/OR gates (Example 1), inverters free, and "lits" = 2 × gate count.
package network

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bdd"
	"repro/internal/cube"
)

// GateType enumerates the primitive gate functions.
type GateType int

// Gate types. PI gates have no fanins; Const gates are nullary constants;
// Buf/Not are unary; the rest take one or more fanins.
const (
	PI GateType = iota
	Const0
	Const1
	Buf
	Not
	And
	Or
	Nand
	Nor
	Xor
	Xnor
)

var typeNames = map[GateType]string{
	PI: "pi", Const0: "const0", Const1: "const1", Buf: "buf", Not: "not",
	And: "and", Or: "or", Nand: "nand", Nor: "nor", Xor: "xor", Xnor: "xnor",
}

func (t GateType) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	// Out-of-range values (corrupted input, future enum members) must
	// still print something useful in degradation reports and BLIF error
	// paths rather than an empty string.
	return fmt.Sprintf("gatetype(%d)", int(t))
}

// Gate is one node of the network. Fanins refer to gate IDs.
type Gate struct {
	ID     int
	Type   GateType
	Fanins []int
	Name   string // set for PIs; optional elsewhere
}

// PO is a named primary output driven by a gate.
type PO struct {
	Name string
	Gate int
}

// Network is a multilevel combinational gate netlist.
type Network struct {
	Name  string
	Gates []Gate
	PIs   []int // gate IDs, in declaration order
	POs   []PO

	// strash is the hash-consing table: canonical (type, fanins) hash →
	// candidate gate IDs. Entries are verified against the gate's current
	// contents on lookup, so a table left stale by an in-place mutation
	// (redundancy removal, functional merging) can only miss, never
	// alias the wrong gate. nil means "rebuild lazily on next use" — the
	// zero value, a Clone, or a struct-literal network all work
	// unchanged.
	strash map[uint64][]int
}

// New returns an empty network.
func New(name string) *Network { return &Network{Name: name} }

// AddPI appends a primary input gate and returns its ID. PIs are never
// hash-consed: each declaration is a distinct input.
func (n *Network) AddPI(name string) int {
	id := len(n.Gates)
	n.Gates = append(n.Gates, Gate{ID: id, Type: PI, Name: name})
	n.PIs = append(n.PIs, id)
	return id
}

// strashKey hashes a canonical (type, fanins) pair with FNV-1a over the
// raw integers — no per-gate string formatting or allocation.
func strashKey(t GateType, fanins []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(t))
	for _, f := range fanins {
		mix(uint64(f))
	}
	return h
}

// table returns the strash map, rebuilding it from the current gate list
// if an in-place mutation invalidated it (or it was never built).
func (n *Network) table() map[uint64][]int {
	if n.strash == nil {
		n.strash = make(map[uint64][]int, len(n.Gates))
		for i := range n.Gates {
			g := &n.Gates[i]
			if g.Type == PI {
				continue
			}
			k := strashKey(g.Type, g.Fanins)
			n.strash[k] = append(n.strash[k], g.ID)
		}
	}
	return n.strash
}

// lookupStrash returns an existing gate whose *current* contents equal
// the canonical (t, fanins), or -1. Verifying against the live gate (not
// what was inserted) makes stale entries harmless.
func (n *Network) lookupStrash(t GateType, fanins []int) int {
	for _, id := range n.table()[strashKey(t, fanins)] {
		g := &n.Gates[id]
		if g.Type != t || len(g.Fanins) != len(fanins) {
			continue
		}
		match := true
		for i, f := range g.Fanins {
			if f != fanins[i] {
				match = false
				break
			}
		}
		if match {
			return id
		}
	}
	return -1
}

func (n *Network) insertStrash(id int) {
	g := &n.Gates[id]
	k := strashKey(g.Type, g.Fanins)
	n.strash[k] = append(n.strash[k], id)
}

// canonGate rewrites a requested gate into canonical form. It returns
// either a collapse onto an existing gate (collapse >= 0, the other two
// results unset), or the canonical (type, fanins) to build: commutative
// fanins sorted ascending, constants folded, duplicate fanins collapsed
// (And) or cancelled pairwise (Xor), double negation eliminated, and
// Xor/Xnor polarity normalized. cf never aliases the caller's slice.
func (n *Network) canonGate(t GateType, fanins []int) (ct GateType, cf []int, collapse int) {
	typeOf := func(id int) GateType { return n.Gates[id].Type }
	// Look through buffer chains first, so logic behind a Buf (left by
	// in-place rewrites or BLIF round-trips) canonicalizes to the same
	// form as logic on the raw driver.
	for i, f := range fanins {
		if typeOf(f) != Buf {
			continue
		}
		rf := make([]int, len(fanins))
		copy(rf, fanins[:i])
		for j := i; j < len(fanins); j++ {
			g := fanins[j]
			for typeOf(g) == Buf {
				g = n.Gates[g].Fanins[0]
			}
			rf[j] = g
		}
		fanins = rf
		break
	}
	switch t {
	case Const0, Const1:
		return t, nil, -1
	case Buf:
		return 0, nil, fanins[0]
	case Not:
		switch f := fanins[0]; typeOf(f) {
		case Const0:
			return Const1, nil, -1
		case Const1:
			return Const0, nil, -1
		case Not:
			return 0, nil, n.Gates[f].Fanins[0]
		default:
			return Not, []int{f}, -1
		}
	case And, Nand, Or, Nor:
		isAnd := t == And || t == Nand
		neg := t == Nand || t == Nor
		kept := make([]int, 0, len(fanins))
		killed := false
		for _, f := range fanins {
			ft := typeOf(f)
			if isAnd && ft == Const1 || !isAnd && ft == Const0 {
				continue // identity element
			}
			if isAnd && ft == Const0 || !isAnd && ft == Const1 {
				killed = true // dominating element
				break
			}
			dup := false
			for _, k := range kept {
				if k == f {
					dup = true
					break
				}
			}
			if !dup {
				kept = append(kept, f)
			}
		}
		if killed {
			if isAnd != neg { // And→0, Nor→0
				return Const0, nil, -1
			}
			return Const1, nil, -1
		}
		switch len(kept) {
		case 0: // all identity elements: And()→1, Or()→0, negated forms flip
			if isAnd != neg {
				return Const1, nil, -1
			}
			return Const0, nil, -1
		case 1:
			if neg {
				return n.canonGate(Not, kept)
			}
			return 0, nil, kept[0]
		}
		sort.Ints(kept)
		return t, kept, -1
	case Xor, Xnor:
		invert := t == Xnor
		count := make(map[int]int, len(fanins))
		for _, f := range fanins {
			switch typeOf(f) {
			case Const0:
				// identity
			case Const1:
				invert = !invert
			default:
				count[f]++
			}
		}
		kept := make([]int, 0, len(count))
		for f, c := range count {
			if c%2 == 1 {
				kept = append(kept, f)
			}
		}
		sort.Ints(kept)
		switch len(kept) {
		case 0:
			if invert {
				return Const1, nil, -1
			}
			return Const0, nil, -1
		case 1:
			if invert {
				return n.canonGate(Not, kept)
			}
			return 0, nil, kept[0]
		}
		if invert {
			return Xnor, kept, -1
		}
		return Xor, kept, -1
	}
	panic(fmt.Sprintf("network: canonGate on %v", t))
}

// AddGate returns a gate computing the given function of the fanins,
// creating it only if no structurally identical gate exists. The request
// is first canonicalized — commutative fanins sorted, constants folded,
// And(a,a)→a, Xor(a,a)→0, Not(Not(a))→a, Buf(a)→a — so the returned ID
// may be an existing gate (possibly one of the fanins themselves) and
// the network never grows two gates with the same canonical form.
//
// The shape checks below are programmer invariants guarding API misuse
// at construction sites (all fanin IDs and arities are chosen by code,
// not data); parsers validate their input before calling AddGate.
func (n *Network) AddGate(t GateType, fanins ...int) int {
	for _, f := range fanins {
		if f < 0 || f >= len(n.Gates) {
			panic(fmt.Sprintf("network: fanin %d out of range", f))
		}
	}
	switch t {
	case PI:
		panic("network: use AddPI for primary inputs")
	case Const0, Const1:
		if len(fanins) != 0 {
			panic("network: constants take no fanins")
		}
	case Buf, Not:
		if len(fanins) != 1 {
			panic(fmt.Sprintf("network: %v takes exactly one fanin", t))
		}
	default:
		if len(fanins) == 0 {
			panic(fmt.Sprintf("network: %v needs fanins", t))
		}
	}
	ct, cf, collapse := n.canonGate(t, fanins)
	if collapse >= 0 {
		return collapse
	}
	if id := n.lookupStrash(ct, cf); id >= 0 {
		return id
	}
	id := len(n.Gates)
	n.Gates = append(n.Gates, Gate{ID: id, Type: ct, Fanins: cf})
	n.insertStrash(id)
	return id
}

// FindGate reports whether a gate computing the given function already
// exists, without creating one. The request is canonicalized exactly as
// AddGate would, so FindGate(t, f...) succeeds iff AddGate(t, f...)
// would return an existing ID.
func (n *Network) FindGate(t GateType, fanins ...int) (int, bool) {
	ct, cf, collapse := n.canonGate(t, fanins)
	if collapse >= 0 {
		return collapse, true
	}
	if id := n.lookupStrash(ct, cf); id >= 0 {
		return id, true
	}
	return -1, false
}

// AddPO marks gate id as the primary output called name.
func (n *Network) AddPO(name string, id int) {
	n.POs = append(n.POs, PO{Name: name, Gate: id})
}

// NumPIs returns the number of primary inputs.
func (n *Network) NumPIs() int { return len(n.PIs) }

// NumPOs returns the number of primary outputs.
func (n *Network) NumPOs() int { return len(n.POs) }

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	out := &Network{Name: n.Name, PIs: append([]int(nil), n.PIs...), POs: append([]PO(nil), n.POs...)}
	out.Gates = make([]Gate, len(n.Gates))
	for i, g := range n.Gates {
		out.Gates[i] = Gate{ID: g.ID, Type: g.Type, Name: g.Name, Fanins: append([]int(nil), g.Fanins...)}
	}
	return out
}

// ExtractCone returns a new network with the same primary inputs (same
// order, same names) and exactly one primary output: a structural copy
// of output po's cone, rebuilt through the hash-consing constructor.
// Every PI is kept whether or not the cone supports it, so cone results
// stay index-compatible with the parent network for merging and
// verification. The receiver is only read (the consing table of the new
// network is private to it), so concurrent extractions from one parent
// are safe.
func (n *Network) ExtractCone(po int) *Network {
	out := New(fmt.Sprintf("%s_cone%d", n.Name, po))
	for _, pi := range n.PIs {
		out.AddPI(n.Gates[pi].Name)
	}
	p := n.POs[po]
	out.AddPO(p.Name, NewCopier(n, out, out.PIs).Copy(p.Gate))
	return out
}

// Copier copies gate cones of a source network into a destination
// network through AddGate, so the copy is hash-consed: each source gate
// is copied once, and logic shared between copied cones (or already
// present in the destination) is shared in the copy. Copying a cone
// visits its gates in the order TopoOrder would.
type Copier struct {
	src, dst *Network
	memo     []int // source gate ID → destination gate ID, -1 until copied
}

// NewCopier returns a Copier from src into dst that maps src's i-th PI
// onto dst's gate pis[i]. src must not grow while the Copier is in use.
func NewCopier(src, dst *Network, pis []int) *Copier {
	c := &Copier{src: src, dst: dst, memo: make([]int, len(src.Gates))}
	for i := range c.memo {
		c.memo[i] = -1
	}
	for i, id := range src.PIs {
		c.memo[id] = pis[i]
	}
	return c
}

// Copy returns the destination gate computing source gate id, copying
// its cone on first use.
func (c *Copier) Copy(id int) int {
	if g := c.memo[id]; g >= 0 {
		return g
	}
	g := &c.src.Gates[id]
	fanins := make([]int, len(g.Fanins))
	for i, f := range g.Fanins {
		fanins[i] = c.Copy(f)
	}
	c.memo[id] = c.dst.AddGate(g.Type, fanins...)
	return c.memo[id]
}

// TopoOrder returns the IDs of all gates in the transitive fanin of the
// POs, fanins before fanouts. PIs are included.
func (n *Network) TopoOrder() []int {
	state := make([]int8, len(n.Gates)) // 0 unseen, 1 visiting, 2 done
	order := make([]int, 0, len(n.Gates))
	var visit func(int)
	visit = func(id int) {
		switch state[id] {
		case 2:
			return
		case 1:
			// Programmer invariant: AddGate only accepts already-existing
			// fanins, so a constructed network is acyclic by induction;
			// parsers (ReadBLIF) reject forward references and cycles.
			panic("network: combinational cycle")
		}
		state[id] = 1
		for _, f := range n.Gates[id].Fanins {
			visit(f)
		}
		state[id] = 2
		order = append(order, id)
	}
	for _, pi := range n.PIs {
		visit(pi)
	}
	for _, po := range n.POs {
		visit(po.Gate)
	}
	return order
}

// Fanouts returns, for each gate ID, the IDs of gates that list it as a
// fanin. POs are not included.
func (n *Network) Fanouts() [][]int {
	out := make([][]int, len(n.Gates))
	for _, g := range n.Gates {
		for _, f := range g.Fanins {
			out[f] = append(out[f], g.ID)
		}
	}
	return out
}

// EvalGateWord computes one gate's 64-pattern output word from its fanin
// words (exported for incremental simulators).
func EvalGateWord(t GateType, in []uint64) uint64 { return evalGate(t, in) }

// evalGate computes one gate's 64-pattern word from its fanin words.
func evalGate(t GateType, in []uint64) uint64 {
	switch t {
	case Const0:
		return 0
	case Const1:
		return ^uint64(0)
	case Buf:
		return in[0]
	case Not:
		return ^in[0]
	case And, Nand:
		v := ^uint64(0)
		for _, w := range in {
			v &= w
		}
		if t == Nand {
			v = ^v
		}
		return v
	case Or, Nor:
		v := uint64(0)
		for _, w := range in {
			v |= w
		}
		if t == Nor {
			v = ^v
		}
		return v
	case Xor, Xnor:
		v := uint64(0)
		for _, w := range in {
			v ^= w
		}
		if t == Xnor {
			v = ^v
		}
		return v
	}
	// Programmer invariant: GateType is a closed enum and PI is handled by
	// every caller before dispatching here.
	panic("network: evalGate on PI")
}

// Simulate runs 64 input patterns at once: the one-block case of
// SimulateBlocks. piWords[i] holds the 64 values of the i-th PI (in PIs
// order). The returned slice holds one word per gate ID; gates outside
// the PO cone, other than the PIs, are zero.
func (n *Network) Simulate(piWords []uint64) []uint64 {
	return n.SimulateBlocks([][]uint64{piWords})[0]
}

// SimulateBlocks simulates every block of PI words over one topological
// order: vals[b] is what Simulate(blocks[b]) returns. Each vals[b] is
// capped at the gate count, so appending to one never writes into
// another.
func (n *Network) SimulateBlocks(blocks [][]uint64) [][]uint64 {
	order := n.TopoOrder()
	ng := len(n.Gates)
	buf := make([]uint64, len(blocks)*ng)
	vals := make([][]uint64, len(blocks))
	var in []uint64 // fanin words, reused across gates and blocks
	for b, piWords := range blocks {
		if len(piWords) != len(n.PIs) {
			// Programmer invariant: callers size piWords from n.PIs itself.
			panic("network: wrong number of PI words")
		}
		val := buf[b*ng : (b+1)*ng : (b+1)*ng]
		for i, id := range n.PIs {
			val[id] = piWords[i]
		}
		for _, id := range order {
			g := &n.Gates[id]
			if g.Type == PI {
				continue
			}
			in = in[:0]
			for _, f := range g.Fanins {
				in = append(in, val[f])
			}
			val[id] = evalGate(g.Type, in)
		}
		vals[b] = val
	}
	return vals
}

// PackPatterns packs single assignments (bit i = PI i's value) into
// 64-pattern blocks for SimulateBlocks: pattern p is bit p%64 of block
// p/64, whose word i holds PI i. Bits past the last pattern are zero.
func PackPatterns(patterns []cube.BitSet, nPI int) [][]uint64 {
	blocks := make([][]uint64, (len(patterns)+63)/64)
	for b := range blocks {
		blocks[b] = make([]uint64, nPI)
	}
	for p, pat := range patterns {
		words := blocks[p/64]
		for v := range words {
			if pat.Has(v) {
				words[v] |= 1 << uint(p%64)
			}
		}
	}
	return blocks
}

// Eval evaluates the network on a single assignment (bit i of assign = PI
// i's value) and returns one bool per PO.
func (n *Network) Eval(assign cube.BitSet) []bool {
	words := make([]uint64, len(n.PIs))
	for i := range n.PIs {
		if assign.Has(i) {
			words[i] = 1
		}
	}
	val := n.Simulate(words)
	out := make([]bool, len(n.POs))
	for i, po := range n.POs {
		out[i] = val[po.Gate]&1 != 0
	}
	return out
}

// Stats holds the paper's pre-mapping cost metrics.
type Stats struct {
	Gates2 int // equivalent 2-input AND/OR gate count (XOR = 3, inverters free)
	Lits   int // 2 × Gates2, the paper's "lits" column
	XORs   int // XOR/XNOR gates in the network (as entities)
	Total  int // gates of any type in the PO cone (excluding PIs)
}

// CollectStats computes the cost metrics over the PO cone.
func (n *Network) CollectStats() Stats {
	var s Stats
	for _, id := range n.TopoOrder() {
		s.add(&n.Gates[id])
	}
	s.Lits = 2 * s.Gates2
	return s
}

// ConeStats computes CollectStats' cost model over the cone rooted at
// one gate: the whole-network metric restricted to a single output.
func (n *Network) ConeStats(root int) Stats {
	var s Stats
	seen := make(map[int]bool)
	var visit func(int)
	visit = func(id int) {
		if seen[id] {
			return
		}
		seen[id] = true
		g := &n.Gates[id]
		for _, f := range g.Fanins {
			visit(f)
		}
		s.add(g)
	}
	visit(root)
	s.Lits = 2 * s.Gates2
	return s
}

// add counts one gate under the cost model; the caller sets Lits.
func (s *Stats) add(g *Gate) {
	switch g.Type {
	case PI:
	case And, Or, Nand, Nor:
		s.Total++
		s.Gates2 += len(g.Fanins) - 1
	case Xor, Xnor:
		s.Total++
		s.XORs++
		s.Gates2 += 3 * (len(g.Fanins) - 1)
	default: // Const0, Const1, Buf, Not
		s.Total++
	}
}

// Strash re-canonicalizes and merges structurally identical gates (same
// type, same set of fanins, commutativity respected) across the whole
// network, bottom-up. Hash-consed construction makes this a no-op on a
// freshly built network; it is the one rewrite pass for networks
// deserialized from BLIF or mutated in place (redundancy removal,
// functional merging). Unlike the constructors it also simplifies gates
// whose fanins *become* equal or constant after a replacement —
// And(a,a)→a, Xor(a,a)→0 — and looks through Buf/Not chains, so
// equivalent logic hidden behind a buffer merges too. Returns the number
// of gates merged or collapsed away.
func (n *Network) Strash() int {
	repl := make([]int, len(n.Gates))
	for i := range repl {
		repl[i] = i
	}
	// A fresh table indexes only the canonical survivors. The fanin
	// rewrite loop below may edit merged-away gates' fanin slices; those
	// stale entries verify-and-miss, so the table stays usable after.
	n.strash = make(map[uint64][]int, len(n.Gates))
	merged := 0
	for _, id := range n.TopoOrder() {
		g := &n.Gates[id]
		if g.Type == PI {
			continue
		}
		fins := make([]int, len(g.Fanins))
		for i, f := range g.Fanins {
			fins[i] = repl[f]
		}
		ct, cf, collapse := n.canonGate(g.Type, fins)
		if collapse >= 0 {
			// The gate reduced to one of its (replaced) fanins: Buf, a
			// single surviving And/Or fanin, And(a,a), a cancelled
			// double negation. Its fanout will be rewired past it.
			repl[id] = collapse
			merged++
			continue
		}
		g.Type, g.Fanins = ct, cf
		if prev := n.lookupStrash(ct, cf); prev >= 0 {
			repl[id] = prev
			merged++
		} else {
			n.insertStrash(id)
		}
	}
	for i := range n.Gates {
		for j, f := range n.Gates[i].Fanins {
			n.Gates[i].Fanins[j] = repl[f]
		}
	}
	for i := range n.POs {
		n.POs[i].Gate = repl[n.POs[i].Gate]
	}
	return merged
}

// RebalanceXorTrees flattens chains of single-fanout XOR gates into one
// multi-operand XOR and rebuilds it as a balanced tree of consed 2-input
// gates. Cancellation across the whole chain (the same leaf reaching the
// root twice) falls out of the canonicalization, so a rebalanced tree
// never costs more gates than the chain it replaces. The root gate's ID
// is preserved; interior chain gates go dead (Compact removes them).
// Returns the number of trees rebuilt.
//
// Run this only after redundancy analysis: the Section 4 XOR pairing in
// factor deliberately shapes its trees so redund finds reducible gates.
func (n *Network) RebalanceXorTrees() int {
	fanoutCount := make([]int, len(n.Gates))
	poRef := make([]bool, len(n.Gates))
	for _, g := range n.Gates {
		for _, f := range g.Fanins {
			fanoutCount[f]++
		}
	}
	for _, po := range n.POs {
		poRef[po.Gate] = true
	}
	// internal: an XOR absorbed into its sole consumer's operand list.
	internal := func(id int) bool {
		g := &n.Gates[id]
		return (g.Type == Xor || g.Type == Xnor) && fanoutCount[id] == 1 && !poRef[id]
	}
	rebuilt := 0
	for _, id := range n.TopoOrder() { // snapshot: new gates appended below aren't revisited
		g := &n.Gates[id]
		if g.Type != Xor && g.Type != Xnor {
			continue
		}
		if internal(id) {
			continue // will be absorbed into its consumer's tree
		}
		// Collect leaves by expanding internal XOR fanins. Xnor flips
		// the collected polarity.
		invert := g.Type == Xnor
		var leaves []int
		var expand func(int)
		expand = func(f int) {
			if internal(f) {
				fg := &n.Gates[f]
				if fg.Type == Xnor {
					invert = !invert
				}
				for _, ff := range fg.Fanins {
					expand(ff)
				}
				return
			}
			leaves = append(leaves, f)
		}
		for _, f := range g.Fanins {
			expand(f)
		}
		if len(leaves) == len(g.Fanins) && (g.Type == Xnor) == invert {
			continue // already flat
		}
		t := Xor
		if invert {
			t = Xnor
		}
		ct, cf, collapse := n.canonGate(t, leaves)
		switch {
		case collapse >= 0:
			g.Type, g.Fanins = Buf, []int{collapse}
		case len(cf) == 0: // constant
			g.Type, g.Fanins = ct, nil
		case ct == Not:
			g.Type, g.Fanins = Not, cf
		default:
			// Build the balanced tree with consed 2-input XORs, keeping
			// the root's ID: pair down to two operands, then write the
			// final 2-input gate into the root in place. Reused existing
			// gates are sound here: their cones contain only leaves (or
			// gates below them), never this root.
			ids := cf
			for len(ids) > 2 {
				var next []int
				for i := 0; i+1 < len(ids); i += 2 {
					next = append(next, n.AddGate(Xor, ids[i], ids[i+1]))
				}
				if len(ids)%2 == 1 {
					next = append(next, ids[len(ids)-1])
				}
				ids = next
			}
			g = &n.Gates[id] // re-take: AddGate may have grown the slice
			g.Type, g.Fanins = ct, ids
		}
		rebuilt++
	}
	if rebuilt > 0 {
		n.strash = nil
	}
	return rebuilt
}

// Compact drops every gate outside the PIs ∪ PO-cone set and renumbers
// the survivors densely (topological order: fanins before fanouts, PIs
// in declaration order first among themselves). Strash and the cleanup
// passes leave merged-away gates behind; Compact reclaims them so
// len(Gates) again reflects live logic. Returns the number of gates
// removed.
func (n *Network) Compact() int {
	order := n.TopoOrder()
	if len(order) == len(n.Gates) {
		return 0
	}
	remap := make([]int, len(n.Gates))
	for i := range remap {
		remap[i] = -1
	}
	gates := make([]Gate, 0, len(order))
	for _, id := range order {
		g := n.Gates[id]
		newID := len(gates)
		remap[id] = newID
		fins := make([]int, len(g.Fanins))
		for i, f := range g.Fanins {
			fins[i] = remap[f] // fanins precede fanouts in topo order
		}
		gates = append(gates, Gate{ID: newID, Type: g.Type, Fanins: fins, Name: g.Name})
	}
	removed := len(n.Gates) - len(gates)
	n.Gates = gates
	for i, pi := range n.PIs {
		n.PIs[i] = remap[pi]
	}
	for i := range n.POs {
		n.POs[i].Gate = remap[n.POs[i].Gate]
	}
	n.strash = nil
	return removed
}

// Canonical returns a fresh, fully hash-consed copy of the network:
// every cone gate is re-added through AddGate in topological order, so
// the result is compact (no dead gates), canonically ordered, and free
// of buffers, double negations, and duplicate structure — regardless of
// how the receiver was built or mutated. PI/PO names and order are
// preserved. The receiver is not modified.
func (n *Network) Canonical() *Network {
	out := New(n.Name)
	for _, pi := range n.PIs {
		out.AddPI(n.Gates[pi].Name)
	}
	c := NewCopier(n, out, out.PIs)
	for _, po := range n.POs {
		out.AddPO(po.Name, c.Copy(po.Gate))
	}
	// A collapse (e.g. a rebuilt Not(Not(x))) can strand the intermediate
	// gate it was built from; compact so the result is dead-gate-free.
	out.Compact()
	return out
}

// ToBDDs builds the BDD of every PO over a manager with one variable per
// PI (in PIs order). Gates outside the PO cone are ignored.
func (n *Network) ToBDDs(m *bdd.Manager) []bdd.Ref {
	val := n.GateBDDs(m, nil)
	out := make([]bdd.Ref, len(n.POs))
	for i, po := range n.POs {
		out[i] = val[po.Gate]
	}
	return out
}

// GateBDDs builds the BDD of every gate in the PO cones, indexed by gate
// ID, over a manager with one variable per PI. level[i] is the variable
// of the i-th PI; nil means PIs order. Gates outside the PO cones are
// left bdd.Zero.
func (n *Network) GateBDDs(m *bdd.Manager, level []int) []bdd.Ref {
	if m.NumVars() != len(n.PIs) {
		// Programmer invariant: callers allocate the manager from
		// NumPIs() of this network (or a network with the same inputs).
		panic("network: BDD manager size mismatch")
	}
	val := make([]bdd.Ref, len(n.Gates))
	for i, id := range n.PIs {
		v := i
		if level != nil {
			v = level[i]
		}
		val[id] = m.Var(v)
	}
	var ins []bdd.Ref
	for _, id := range n.TopoOrder() {
		g := &n.Gates[id]
		if g.Type == PI {
			continue
		}
		ins = ins[:0]
		for _, f := range g.Fanins {
			ins = append(ins, val[f])
		}
		val[id] = GateBDD(m, g.Type, ins)
	}
	return val
}

// GateBDD returns the BDD of one gate of type t whose fanins have the
// BDDs ins. t must not be PI.
func GateBDD(m *bdd.Manager, t GateType, ins []bdd.Ref) bdd.Ref {
	switch t {
	case Const0:
		return bdd.Zero
	case Const1:
		return bdd.One
	case Buf:
		return ins[0]
	case Not:
		return m.Not(ins[0])
	case And, Nand:
		v := bdd.One
		for _, f := range ins {
			v = m.And(v, f)
		}
		if t == Nand {
			v = m.Not(v)
		}
		return v
	case Or, Nor:
		v := bdd.Zero
		for _, f := range ins {
			v = m.Or(v, f)
		}
		if t == Nor {
			v = m.Not(v)
		}
		return v
	case Xor, Xnor:
		v := bdd.Zero
		for _, f := range ins {
			v = m.Xor(v, f)
		}
		if t == Xnor {
			v = m.Not(v)
		}
		return v
	}
	// Programmer invariant: GateType is a closed enum and PI is handled by
	// every caller before dispatching here.
	panic("network: GateBDD on PI")
}

// BalancedTree builds a balanced tree of 2-input gates of type t over the
// given operand gate IDs and returns the root ID. A single operand is
// returned unchanged.
func (n *Network) BalancedTree(t GateType, ids []int) int {
	if len(ids) == 0 {
		// Programmer invariant: callers handle the empty-operand case
		// (constant) before asking for a tree.
		panic("network: BalancedTree of nothing")
	}
	for len(ids) > 1 {
		var next []int
		for i := 0; i+1 < len(ids); i += 2 {
			next = append(next, n.AddGate(t, ids[i], ids[i+1]))
		}
		if len(ids)%2 == 1 {
			next = append(next, ids[len(ids)-1])
		}
		ids = next
	}
	return ids[0]
}

// String renders a compact description of the network.
func (n *Network) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "network %s: %d PIs, %d POs, %d gates\n", n.Name, len(n.PIs), len(n.POs), len(n.Gates))
	for _, id := range n.TopoOrder() {
		g := &n.Gates[id]
		if g.Type == PI {
			fmt.Fprintf(&b, "  g%d = PI %s\n", id, g.Name)
		} else {
			fmt.Fprintf(&b, "  g%d = %v%v\n", id, g.Type, g.Fanins)
		}
	}
	for _, po := range n.POs {
		fmt.Fprintf(&b, "  PO %s = g%d\n", po.Name, po.Gate)
	}
	return b.String()
}
