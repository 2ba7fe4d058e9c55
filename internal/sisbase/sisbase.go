// Package sisbase implements the comparison baseline: a conventional
// SOP-based multilevel synthesis flow in the style of Berkeley SIS 1.2's
// algebraic scripts (the paper compares against the best of `rugged`,
// `boolean` and `algebraic` followed by `red_removal`).
//
// The flow operates on a network of nodes whose functions are
// sum-of-products covers over a global signal space:
//
//	sweep      — constant propagation, buffer collapsing, dead removal
//	eliminate  — collapse low-value nodes into their fanouts
//	simplify   — espresso-style two-level minimization per node
//	fx         — fast-extract: single-cube and double-cube divisor
//	             extraction (Brayton/McMullen algebraic division)
//	resub      — algebraic resubstitution of existing nodes as divisors
//	decomp     — final decomposition into a 2-input AND/OR gate network
//
// SIS red_removal's global stuck-at redundancy removal is approximated by
// per-node irredundant covers (espresso irredundant); don't-care-based
// removal across node boundaries is not reproduced (documented in
// DESIGN.md).
package sisbase

import (
	"context"
	"fmt"
	"time"

	"repro/internal/budget"
	"repro/internal/network"
	"repro/internal/sop"
)

// Node is one function of the SOP network. Its cover is over the global
// signal space: literal v of the cover refers to node v's output.
type Node struct {
	ID    int
	IsPI  bool
	Name  string
	Cover *sop.Cover // nil for PIs
	Dead  bool
}

// Net is a multilevel network of SOP nodes over a global signal space.
type Net struct {
	Name   string
	Nodes  []*Node
	PIs    []int
	POs    []PO
	sigCap int // capacity of the signal space (cover variable count)
}

// PO names a primary output.
type PO struct {
	Name string
	Node int
}

// Options is empty: the script's parameters are the constants below.
// The type stays because Run's callers, among them the examples and
// perfbench, pass DefaultOptions().
type Options struct{}

// DefaultOptions mirrors "script.algebraic".
func DefaultOptions() Options { return Options{} }

// The "script.algebraic" parameters.
const (
	// eliminateValue collapses nodes whose elimination grows the network
	// by at most this many literals (the SIS `eliminate` threshold).
	eliminateValue = 0
	// maxIters bounds the fx/resub/eliminate/simplify iteration.
	maxIters = 8
)

// Result is the outcome of a baseline run.
type Result struct {
	Network *network.Network
	Stats   network.Stats
	Elapsed time.Duration
	// Stopped names the reason the iteration ended early (context deadline
	// or cancellation); empty when the script ran to convergence. The
	// returned network is still the valid (if less optimized) state reached
	// before the stop.
	Stopped string
}

// Run converts the specification gate network into an SOP node network,
// applies the baseline script, and returns the decomposed 2-input gate
// network. The context is polled between optimization passes: on deadline
// or cancellation the flow stops gracefully at the last completed pass and
// still returns a functionally intact network, with Result.Stopped set.
func Run(ctx context.Context, spec *network.Network, _ Options) (*Result, error) {
	return run(ctx, spec, nil)
}

// RunCone runs the baseline script on the cone of spec's primary output
// po — the per-cone callable of the basis arbiter's SOP arm. It honors
// ctx and bud the same way the fprm flow does: both are polled between
// optimization passes, so cancellation or budget exhaustion stops the
// script gracefully at the last completed pass, with Result.Stopped set
// and a functionally intact single-output network. The cone keeps spec's
// full PI list in order (see network.ExtractCone), so the result stays
// index-compatible with spec for merging and verification. spec is only
// read; concurrent RunCone calls on one spec are safe.
func RunCone(ctx context.Context, spec *network.Network, po int, bud *budget.Budget) (*Result, error) {
	if po < 0 || po >= len(spec.POs) {
		return nil, fmt.Errorf("sisbase: output %d out of range (network has %d)", po, len(spec.POs))
	}
	return run(ctx, spec.ExtractCone(po), bud)
}

func run(ctx context.Context, spec *network.Network, bud *budget.Budget) (*Result, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	net, err := FromNetwork(spec)
	if err != nil {
		return nil, err
	}
	stopped := ""
	interrupted := func() bool {
		if stopped != "" {
			return true
		}
		if err := ctx.Err(); err != nil {
			stopped = err.Error()
			return true
		}
		// The graceful poll: a tripped/expired budget ends the script at
		// the pass boundary, exactly like the polarity search's poll.
		if err := bud.Exceeded(); err != nil {
			stopped = err.Error()
			return true
		}
		return false
	}
	net.Sweep()
	if !interrupted() {
		net.Eliminate(eliminateValue)
	}
	if !interrupted() {
		net.Simplify()
	}
	prev := -1
	for it := 0; it < maxIters && !interrupted(); it++ {
		net.FastExtract()
		if !interrupted() {
			net.Resub()
		}
		if !interrupted() {
			net.Eliminate(eliminateValue)
		}
		if interrupted() {
			break
		}
		net.Simplify()
		net.Sweep()
		lits := net.Literals()
		if lits == prev {
			break
		}
		prev = lits
	}
	out := net.Decompose()
	// Hash-consed construction already keeps Decompose's output canonical;
	// Strash mops up the PO-level indirections and Compact reclaims
	// anything the merges left dead.
	out.Strash()
	out.Compact()
	res := &Result{Network: out, Stats: out.CollectStats(), Elapsed: time.Since(start), Stopped: stopped}
	return res, nil
}

// FromNetwork converts a gate network into an SOP node network: each gate
// becomes a node with its local cover (XOR gates become parity covers).
func FromNetwork(spec *network.Network) (*Net, error) {
	// Signal space: generous headroom for extracted divisors.
	capSig := len(spec.Gates)*2 + 256
	n := &Net{Name: spec.Name, sigCap: capSig}
	n.Nodes = make([]*Node, len(spec.Gates), capSig)
	for _, id := range spec.TopoOrder() {
		g := &spec.Gates[id]
		node := &Node{ID: id, Name: g.Name}
		n.Nodes[id] = node
		if g.Type == network.PI {
			node.IsPI = true
			continue
		}
		cov, err := coverOfGate(capSig, g)
		if err != nil {
			return nil, err
		}
		node.Cover = cov
	}
	// Gates outside the PO cone may be nil; fill placeholders.
	for i, nd := range n.Nodes {
		if nd == nil {
			n.Nodes[i] = &Node{ID: i, Dead: true, Cover: sop.NewCover(capSig)}
		}
	}
	n.PIs = append(n.PIs, spec.PIs...)
	for _, po := range spec.POs {
		n.POs = append(n.POs, PO{Name: po.Name, Node: po.Gate})
	}
	return n, nil
}

// maxXorFanin bounds the fanin width of XOR/XNOR gates converted to
// two-level parity covers: a k-input parity has 2^(k-1) terms, so anything
// wider is a data-dependent blowup, not a usable cover.
const maxXorFanin = 20

func coverOfGate(capSig int, g *network.Gate) (*sop.Cover, error) {
	c := sop.NewCover(capSig)
	switch g.Type {
	case network.Const0:
	case network.Const1:
		c.Add(sop.NewTerm(capSig))
	case network.Buf:
		t := sop.NewTerm(capSig)
		t.SetPos(g.Fanins[0])
		c.Add(t)
	case network.Not:
		t := sop.NewTerm(capSig)
		t.SetNeg(g.Fanins[0])
		c.Add(t)
	case network.And, network.Nand:
		t := sop.NewTerm(capSig)
		for _, f := range g.Fanins {
			t.SetPos(f)
		}
		c.Add(t)
		if g.Type == network.Nand {
			c = c.Complement()
		}
	case network.Or, network.Nor:
		for _, f := range g.Fanins {
			t := sop.NewTerm(capSig)
			t.SetPos(f)
			c.Add(t)
		}
		if g.Type == network.Nor {
			c = c.Complement()
		}
	case network.Xor, network.Xnor:
		k := len(g.Fanins)
		if k > maxXorFanin {
			return nil, fmt.Errorf("sisbase: %d-input %v needs a %d-term parity cover (max fanin %d)",
				k, g.Type, 1<<uint(k-1), maxXorFanin)
		}
		wantOdd := g.Type == network.Xor
		for a := 0; a < 1<<uint(k); a++ {
			ones := 0
			for i := 0; i < k; i++ {
				if a&(1<<i) != 0 {
					ones++
				}
			}
			if (ones%2 == 1) != wantOdd {
				continue
			}
			t := sop.NewTerm(capSig)
			for i := 0; i < k; i++ {
				// Raw bitset writes: duplicate fanins with conflicting
				// phases must yield a contradictory (dropped) term, not a
				// silently rewritten one.
				if a&(1<<i) != 0 {
					t.Pos.Set(g.Fanins[i])
				} else {
					t.Neg.Set(g.Fanins[i])
				}
			}
			if t.Contradicts() {
				continue
			}
			c.Add(t)
		}
	default:
		return nil, fmt.Errorf("sisbase: unsupported gate type %v", g.Type)
	}
	return c, nil
}

// newNode appends a fresh internal node and returns it, or nil when the
// signal space is exhausted (covers cannot address variables beyond
// sigCap). Callers must treat nil as "stop extracting divisors".
func (n *Net) newNode(cover *sop.Cover) *Node {
	id := len(n.Nodes)
	if id >= n.sigCap {
		return nil
	}
	nd := &Node{ID: id, Cover: cover}
	n.Nodes = append(n.Nodes, nd)
	return nd
}

// Literals returns the total literal count over live nodes.
func (n *Net) Literals() int {
	total := 0
	for _, nd := range n.Nodes {
		if !nd.IsPI && !nd.Dead && nd.Cover != nil {
			total += nd.Cover.Literals()
		}
	}
	return total
}

// liveOrder returns internal nodes in topological order (PIs excluded).
func (n *Net) liveOrder() []int {
	state := make([]int8, len(n.Nodes))
	var order []int
	var visit func(int)
	visit = func(id int) {
		if state[id] != 0 {
			return
		}
		state[id] = 1
		nd := n.Nodes[id]
		if !nd.IsPI && nd.Cover != nil {
			sup := nd.Cover.Support()
			sup.ForEach(func(v int) { visit(v) })
			order = append(order, id)
		}
	}
	for _, po := range n.POs {
		visit(po.Node)
	}
	return order
}

// Sweep marks nodes outside the PO cones dead, collapses buffer/constant
// nodes into their fanouts, and removes empty-support indirections.
func (n *Net) Sweep() {
	changed := true
	for changed {
		changed = false
		live := make(map[int]bool)
		for _, id := range n.liveOrder() {
			live[id] = true
		}
		for _, nd := range n.Nodes {
			if nd.IsPI || nd.Dead {
				continue
			}
			if !live[nd.ID] && !n.isPO(nd.ID) {
				nd.Dead = true
			}
		}
		// Collapse single-literal nodes (buffers/inverters of PIs stay:
		// inverters are free in the cost model, and substituting them
		// keeps covers smaller anyway, so collapse those too).
		for _, id := range n.liveOrder() {
			nd := n.Nodes[id]
			if nd.IsPI || nd.Dead {
				continue
			}
			if len(nd.Cover.Terms) == 1 && nd.Cover.Terms[0].Literals() == 1 {
				t := nd.Cover.Terms[0]
				var v int
				var phase bool
				if !t.Pos.IsEmpty() {
					v, phase = t.Pos.Min(), true
				} else {
					v, phase = t.Neg.Min(), false
				}
				if n.substituteWire(id, v, phase) {
					changed = true
				}
			}
		}
	}
}

func (n *Net) isPO(id int) bool {
	for _, po := range n.POs {
		if po.Node == id {
			return true
		}
	}
	return false
}

// substituteWire replaces every use of node id by literal (v, phase).
// Returns whether any use was rewritten. Terms that become contradictory
// (x·x̄) are dropped.
func (n *Net) substituteWire(id, v int, phase bool) bool {
	changed := false
	for _, nd := range n.Nodes {
		if nd.IsPI || nd.Dead || nd.Cover == nil || nd.ID == id {
			continue
		}
		touched := false
		for ti := range nd.Cover.Terms {
			t := &nd.Cover.Terms[ti]
			if t.Pos.Has(id) {
				t.Pos.Clear(id)
				if phase {
					t.Pos.Set(v)
				} else {
					t.Neg.Set(v)
				}
				changed = true
				touched = true
			}
			if t.Neg.Has(id) {
				t.Neg.Clear(id)
				if phase {
					t.Neg.Set(v)
				} else {
					t.Pos.Set(v)
				}
				changed = true
				touched = true
			}
		}
		if touched {
			nd.Cover.SingleTermContainment()
		}
	}
	for i := range n.POs {
		if n.POs[i].Node == id && phase {
			n.POs[i].Node = v
			changed = true
		}
		// A complemented PO keeps the inverter node.
	}
	return changed
}

// Eliminate collapses nodes whose elimination does not grow the literal
// count by more than value (SIS eliminate).
func (n *Net) Eliminate(value int) {
	for n.eliminateOnce(value) {
	}
}

// eliminateOnce performs one elimination pass; reports whether anything
// collapsed.
func (n *Net) eliminateOnce(value int) bool {
	{
		collapsed := false
		order := n.liveOrder()
		// Fanout counts.
		uses := make(map[int][]int)
		for _, id := range order {
			sup := n.Nodes[id].Cover.Support()
			sup.ForEach(func(v int) {
				if !n.Nodes[v].IsPI {
					uses[v] = append(uses[v], id)
				}
			})
		}
		for _, id := range order {
			nd := n.Nodes[id]
			if nd.IsPI || nd.Dead || n.isPO(id) {
				continue
			}
			fanouts := uses[id]
			if len(fanouts) == 0 {
				nd.Dead = true
				continue
			}
			// Compute the true literal delta of collapsing by trying the
			// substitution on copies (SIS's "value" is an estimate; exact
			// is affordable at benchmark sizes and avoids, e.g., blowing
			// XOR chains into two-level parity).
			if len(fanouts) > 8 || nd.Cover.Literals() > 40 {
				continue
			}
			delta := -nd.Cover.Literals()
			newCovers := make([]*sop.Cover, len(fanouts))
			tooBig := false
			var comp *sop.Cover
			for i, fo := range fanouts {
				nc := n.substituted(id, fo, &comp)
				if nc == nil || len(nc.Terms) > 4*len(n.Nodes[fo].Cover.Terms)+8 {
					tooBig = true
					break
				}
				newCovers[i] = nc
				delta += nc.Literals() - n.Nodes[fo].Cover.Literals()
			}
			if tooBig || delta > value {
				continue
			}
			for i, fo := range fanouts {
				n.Nodes[fo].Cover = newCovers[i]
			}
			nd.Dead = true
			collapsed = true
		}
		if !collapsed {
			return false
		}
		n.Sweep()
		return true
	}
}

// substituted returns dst's cover with node src's function substituted
// in, or nil when src does not appear. Terms are split three ways —
// containing the positive literal, the negative literal, or neither —
// and only the parts that actually reference the literal get multiplied
// (dst = s·P + s̄·N + F), so unate uses do not pay for a complement.
// *comp keeps src's complement across the calls for one src; it is
// computed on first need.
func (n *Net) substituted(src, dst int, comp **sop.Cover) *sop.Cover {
	d := n.Nodes[dst].Cover
	if !d.Support().Has(src) {
		return nil
	}
	s := n.Nodes[src].Cover
	pos := sop.NewCover(n.sigCap)
	neg := sop.NewCover(n.sigCap)
	out := sop.NewCover(n.sigCap)
	for _, t := range d.Terms {
		if t.Contradicts() {
			continue // constant-0 term (e.g. left behind by wire substitution)
		}
		switch {
		case t.Pos.Has(src):
			nt := t.Clone()
			nt.Free(src)
			pos.Add(nt)
		case t.Neg.Has(src):
			nt := t.Clone()
			nt.Free(src)
			neg.Add(nt)
		default:
			out.Add(t.Clone())
		}
	}
	if len(pos.Terms) > 0 {
		out.Terms = append(out.Terms, s.Intersect(pos).Terms...)
	}
	if len(neg.Terms) > 0 {
		if *comp == nil {
			*comp = s.Complement()
		}
		out.Terms = append(out.Terms, (*comp).Intersect(neg).Terms...)
	}
	out.SingleTermContainment()
	return out
}

// Simplify runs espresso-style minimization on every node.
func (n *Net) Simplify() {
	for _, id := range n.liveOrder() {
		nd := n.Nodes[id]
		if nd.Cover != nil && len(nd.Cover.Terms) > 0 {
			nd.Cover.Minimize()
		}
	}
}

// Decompose builds the final 2-input AND/OR gate network.
func (n *Net) Decompose() *network.Network {
	out := network.New(n.Name + "_sis")
	gate := make(map[int]int) // node -> gate (positive phase)
	for _, pi := range n.PIs {
		gate[pi] = out.AddPI(n.Nodes[pi].Name)
	}
	lit := func(v int, phase bool) int {
		g, ok := gate[v]
		if !ok {
			// Programmer invariant: liveOrder() visits fanins before users,
			// so every referenced node already has a gate by the time a
			// cover mentions it.
			panic("sisbase: decompose ordering")
		}
		if phase {
			return g
		}
		// Hash-consed: the network shares one NOT per driver.
		return out.AddGate(network.Not, g)
	}
	for _, id := range n.liveOrder() {
		nd := n.Nodes[id]
		c := nd.Cover
		var termGates []int
		for _, t := range c.Terms {
			var litGates []int
			t.Pos.ForEach(func(v int) { litGates = append(litGates, lit(v, true)) })
			t.Neg.ForEach(func(v int) { litGates = append(litGates, lit(v, false)) })
			switch len(litGates) {
			case 0:
				termGates = append(termGates, out.AddGate(network.Const1))
			case 1:
				termGates = append(termGates, litGates[0])
			default:
				termGates = append(termGates, out.BalancedTree(network.And, litGates))
			}
		}
		switch len(termGates) {
		case 0:
			gate[id] = out.AddGate(network.Const0)
		case 1:
			gate[id] = termGates[0]
		default:
			gate[id] = out.BalancedTree(network.Or, termGates)
		}
	}
	for _, po := range n.POs {
		g, ok := gate[po.Node]
		if !ok {
			// PO is a PI or dead constant.
			g = gate[po.Node]
		}
		out.AddPO(po.Name, g)
	}
	return out
}
