package techmap

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/network"
)

// Subject is the NAND2/INV subject graph derived from a gate network.
// Nodes are hash-consed; node 0.. are PIs in network PI order.
type Subject struct {
	Nodes []SubjNode
	PIs   []int
	POs   []SubjPO
	hash  map[[3]int]int
}

// SubjNode is one subject-graph node.
type SubjNode struct {
	IsPI bool
	Inv  bool // true: INV(A); false (non-PI): NAND2(A,B)
	A, B int
	Name string
}

// SubjPO names a mapped primary output.
type SubjPO struct {
	Name string
	Node int
}

func (s *Subject) mkInv(a int) int {
	if nd := s.Nodes[a]; nd.Inv {
		return nd.A // double negation
	}
	k := [3]int{1, a, -1}
	if id, ok := s.hash[k]; ok {
		return id
	}
	id := len(s.Nodes)
	s.Nodes = append(s.Nodes, SubjNode{Inv: true, A: a, B: -1})
	s.hash[k] = id
	return id
}

func (s *Subject) mkNand(a, b int) int {
	if a > b {
		a, b = b, a
	}
	k := [3]int{2, a, b}
	if id, ok := s.hash[k]; ok {
		return id
	}
	id := len(s.Nodes)
	s.Nodes = append(s.Nodes, SubjNode{A: a, B: b})
	s.hash[k] = id
	return id
}

func (s *Subject) mkAnd(a, b int) int { return s.mkInv(s.mkNand(a, b)) }
func (s *Subject) mkOr(a, b int) int  { return s.mkNand(s.mkInv(a), s.mkInv(b)) }
func (s *Subject) mkXor(a, b int) int {
	m := s.mkNand(a, b)
	return s.mkNand(s.mkNand(a, m), s.mkNand(b, m))
}

// BuildSubject converts a gate network into the subject graph. Gates with
// more than two inputs are decomposed into balanced 2-input trees first.
// Constant gates are not supported by the mapper (sweep them away first);
// a constant that survives maps to a zero-area tie-off and is reported in
// Result.Constants.
func BuildSubject(net *network.Network) (*Subject, error) {
	s := &Subject{hash: make(map[[3]int]int)}
	val := make([]int, len(net.Gates))
	for i := range val {
		val[i] = -1
	}
	constVal := make(map[int]int) // gate -> 0/1 for constants
	for _, piID := range net.PIs {
		id := len(s.Nodes)
		s.Nodes = append(s.Nodes, SubjNode{IsPI: true, A: -1, B: -1, Name: net.Gates[piID].Name})
		s.PIs = append(s.PIs, id)
		val[piID] = id
	}
	tree := func(op func(int, int) int, ins []int) int {
		for len(ins) > 1 {
			var next []int
			for i := 0; i+1 < len(ins); i += 2 {
				next = append(next, op(ins[i], ins[i+1]))
			}
			if len(ins)%2 == 1 {
				next = append(next, ins[len(ins)-1])
			}
			ins = next
		}
		return ins[0]
	}
	for _, id := range net.TopoOrder() {
		g := &net.Gates[id]
		if g.Type == network.PI {
			continue
		}
		if g.Type == network.Const0 || g.Type == network.Const1 {
			if g.Type == network.Const0 {
				constVal[id] = 0
			} else {
				constVal[id] = 1
			}
			continue
		}
		ins := make([]int, 0, len(g.Fanins))
		for _, f := range g.Fanins {
			if _, isConst := constVal[f]; isConst {
				return nil, fmt.Errorf("techmap: constant feeds gate %d; sweep the network first", id)
			}
			ins = append(ins, val[f])
		}
		switch g.Type {
		case network.Buf:
			val[id] = ins[0]
		case network.Not:
			val[id] = s.mkInv(ins[0])
		case network.And:
			val[id] = tree(s.mkAnd, ins)
		case network.Nand:
			val[id] = s.mkInv(tree(s.mkAnd, ins))
		case network.Or:
			val[id] = tree(s.mkOr, ins)
		case network.Nor:
			val[id] = s.mkInv(tree(s.mkOr, ins))
		case network.Xor:
			val[id] = tree(s.mkXor, ins)
		case network.Xnor:
			val[id] = s.mkInv(tree(s.mkXor, ins))
		}
	}
	for _, po := range net.POs {
		if cv, ok := constVal[po.Gate]; ok {
			s.POs = append(s.POs, SubjPO{Name: po.Name, Node: -1 - cv}) // tie-off marker
			continue
		}
		s.POs = append(s.POs, SubjPO{Name: po.Name, Node: val[po.Gate]})
	}
	return s, nil
}

// MappedCell is one chosen library cell instance.
type MappedCell struct {
	Cell   string
	Root   int   // subject node the cell output drives
	Inputs []int // subject nodes feeding the cell
}

// Result of technology mapping.
type Result struct {
	Cells     []MappedCell
	Gates     int     // number of cells
	Area      float64 // total cell area
	Lits      int     // SIS-style mapped literal count (Σ cell factored lits)
	Constants int     // constant primary outputs (tie-offs, zero cost)
	Subject   *Subject
	Elapsed   time.Duration
}

// Map covers the subject graph of net with library cells, minimizing area
// by dynamic programming over trees (the DAG is broken at multi-fanout
// nodes, which become mandatory cell outputs; the XOR leaf-DAG patterns
// may swallow sharing that is internal to a match).
func Map(net *network.Network, lib []Cell) (*Result, error) {
	start := time.Now()
	subj, err := BuildSubject(net)
	if err != nil {
		return nil, err
	}
	n := len(subj.Nodes)
	// Fanout counts over the live cone only: subject construction leaves
	// dead intermediate nodes (e.g. the inverter half of an AND whose
	// NAND was reused directly), and counting their references would mark
	// shared NANDs as roots and block complex-cell matches across them.
	live := make([]bool, n)
	var markLive func(int)
	markLive = func(v int) {
		if live[v] || subj.Nodes[v].IsPI {
			live[v] = true
			return
		}
		live[v] = true
		markLive(subj.Nodes[v].A)
		if !subj.Nodes[v].Inv {
			markLive(subj.Nodes[v].B)
		}
	}
	for _, po := range subj.POs {
		if po.Node >= 0 {
			markLive(po.Node)
		}
	}
	fanout := make([]int, n)
	for i, nd := range subj.Nodes {
		if nd.IsPI || !live[i] {
			continue
		}
		fanout[nd.A]++
		if !nd.Inv {
			fanout[nd.B]++
		}
	}
	isRoot := make([]bool, n)
	for _, po := range subj.POs {
		if po.Node >= 0 {
			isRoot[po.Node] = true
		}
	}
	for i, f := range fanout {
		if f > 1 {
			isRoot[i] = true
		}
	}

	type match struct {
		cell   int
		inputs []int
	}
	type dpEntry struct {
		cost  float64
		match match
	}
	dp := make([]dpEntry, n)
	for i := range dp {
		dp[i].cost = -1
	}
	// leafCost: a pattern leaf lands on node v: if v is a PI or a root its
	// subtree is paid elsewhere (roots are emitted once on their own);
	// otherwise its own dp cost is included.
	var bestAt func(v int) dpEntry
	leafCost := func(v int) float64 {
		if subj.Nodes[v].IsPI || isRoot[v] {
			return 0
		}
		return bestAt(v).cost
	}
	bestAt = func(v int) dpEntry {
		if dp[v].cost >= 0 {
			return dp[v]
		}
		best := dpEntry{cost: 1 << 30}
		for ci, cell := range lib {
			for _, pat := range cell.Patterns {
				bindings := make([]int, cell.Inputs)
				for i := range bindings {
					bindings[i] = -1
				}
				if !matchPattern(subj, pat, v, bindings, v, isRoot) {
					continue
				}
				cost := cell.Area
				ok := true
				for _, in := range bindings {
					if in < 0 {
						ok = false
						break
					}
					cost += leafCost(in)
				}
				if !ok {
					continue
				}
				if cost < best.cost {
					best = dpEntry{cost: cost, match: match{cell: ci, inputs: append([]int(nil), bindings...)}}
				}
			}
		}
		dp[v] = best
		return best
	}

	res := &Result{Subject: subj}
	emitted := make(map[int]bool)
	var emitErr error
	var emit func(v int)
	emit = func(v int) {
		if subj.Nodes[v].IsPI || emitted[v] || emitErr != nil {
			return
		}
		emitted[v] = true
		e := bestAt(v)
		if e.match.inputs == nil {
			// A complete library always matches every AIG node; an
			// incomplete user-supplied library can legitimately fail here.
			emitErr = fmt.Errorf("techmap: no library cell matches node %d", v)
			return
		}
		cell := lib[e.match.cell]
		res.Cells = append(res.Cells, MappedCell{Cell: cell.Name, Root: v, Inputs: e.match.inputs})
		res.Area += cell.Area
		res.Lits += cell.Lits
		res.Gates++
		for _, in := range e.match.inputs {
			emit(in)
		}
	}
	for _, po := range subj.POs {
		if po.Node < 0 {
			res.Constants++
			continue
		}
		emit(po.Node)
	}
	if emitErr != nil {
		return nil, emitErr
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// matchPattern matches pat at subject node v. bindings maps pattern
// variables to subject nodes (repeated variables must agree). Internal
// pattern nodes (other than the match root) must not be roots — their
// fanout must be consumed inside the match — except when the same subject
// node is referenced several times within the pattern (the XOR sharing),
// which is checked structurally by the repeated-binding rule.
func matchPattern(subj *Subject, pat *Pattern, v int, bindings []int, matchRoot int, isRoot []bool) bool {
	switch pat.Op {
	case PatLeaf:
		if bindings[pat.Var] >= 0 {
			return bindings[pat.Var] == v
		}
		bindings[pat.Var] = v
		return true
	case PatInv:
		nd := subj.Nodes[v]
		if nd.IsPI || !nd.Inv {
			return false
		}
		if v != matchRoot && isRoot[v] && !sharedInsideXor(pat) {
			return false
		}
		return matchPattern(subj, pat.Kids[0], nd.A, bindings, matchRoot, isRoot)
	case PatNand:
		nd := subj.Nodes[v]
		if nd.IsPI || nd.Inv {
			return false
		}
		if v != matchRoot && isRoot[v] && !sharedInsideXor(pat) {
			return false
		}
		save := append([]int(nil), bindings...)
		if matchPattern(subj, pat.Kids[0], nd.A, bindings, matchRoot, isRoot) &&
			matchPattern(subj, pat.Kids[1], nd.B, bindings, matchRoot, isRoot) {
			return true
		}
		copy(bindings, save)
		if matchPattern(subj, pat.Kids[0], nd.B, bindings, matchRoot, isRoot) &&
			matchPattern(subj, pat.Kids[1], nd.A, bindings, matchRoot, isRoot) {
			return true
		}
		copy(bindings, save)
		return false
	}
	return false
}

// sharedInsideXor reports whether the pattern subtree is the shared
// NAND(A,B) of the XOR pattern — the one internal node whose double
// fanout stays inside the match. It is the only two-leaf NAND subtree
// that appears at depth ≥ 2 twice; structurally we simply allow internal
// root-nodes when the pattern subtree is exactly nand(leaf, leaf).
func sharedInsideXor(pat *Pattern) bool {
	return pat.Op == PatNand && pat.Kids[0].Op == PatLeaf && pat.Kids[1].Op == PatLeaf
}

// CountByCell returns cell-name usage counts.
func (r *Result) CountByCell() map[string]int {
	out := make(map[string]int)
	for _, c := range r.Cells {
		out[c.Cell]++
	}
	return out
}

// String summarizes the mapping.
func (r *Result) String() string {
	counts := r.CountByCell()
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	s := fmt.Sprintf("gates=%d area=%.0f lits=%d:", r.Gates, r.Area, r.Lits)
	for _, n := range names {
		s += fmt.Sprintf(" %s=%d", n, counts[n])
	}
	return s
}
