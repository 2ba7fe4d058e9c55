package factor

import (
	"repro/internal/cube"
	"repro/internal/network"
)

// Emitter turns expression DAGs over PI-space literals (see
// ApplyPolarity) into gates of a network, sharing structurally
// identical subexpressions across all emitted expressions (the
// cross-output sharing the paper obtains with SIS resub). The network
// itself hash-conses gates at construction, so the same (type, fanins)
// gate is never emitted twice — across expressions, outputs, and
// anything else already in the network — and XOR trees prefer operand
// pairs whose XOR gate already exists (network.FindGate, the former
// hasGate linear probe).
type Emitter struct {
	Net     *network.Network
	PIGates []int // gate ID of each variable's primary input

	memo     map[string]int
	supCache map[string]cube.BitSet
}

// NewEmitter returns an emitter into net whose variable v literal is
// piGates[v].
func NewEmitter(net *network.Network, piGates []int) *Emitter {
	return &Emitter{
		Net: net, PIGates: piGates,
		memo:     make(map[string]int),
		supCache: make(map[string]cube.BitSet),
	}
}

// ApplyPolarity rewrites an expression over FPRM literals into PI space:
// literals of negative-polarity variables become complemented variables.
// A nil pol is all-positive. It is the one way an FPRM polarity vector
// reaches the Emitter.
func ApplyPolarity(e *Expr, pol []bool) *Expr {
	memo := make(map[string]*Expr)
	var rec func(*Expr) *Expr
	rec = func(e *Expr) *Expr {
		if r, ok := memo[e.key]; ok {
			return r
		}
		var r *Expr
		switch e.Op {
		case OpLit:
			if pol == nil || pol[e.Var] {
				r = e
			} else {
				r = Not(Lit(e.Var))
			}
		case OpConst0, OpConst1:
			r = e
		default:
			kids := make([]*Expr, len(e.Kids))
			for i, k := range e.Kids {
				kids[i] = rec(k)
			}
			switch e.Op {
			case OpNot:
				r = Not(kids[0])
			case OpAnd:
				r = AndN(kids...)
			case OpOr:
				r = OrN(kids...)
			case OpXor:
				r = XorN(kids...)
			}
		}
		memo[e.key] = r
		return r
	}
	return rec(e)
}

// Emit adds gates computing e and returns the driving gate ID.
func (em *Emitter) Emit(e *Expr) int {
	if id, ok := em.memo[e.key]; ok {
		return id
	}
	var id int
	switch e.Op {
	case OpConst0:
		id = em.Net.AddGate(network.Const0)
	case OpConst1:
		id = em.Net.AddGate(network.Const1)
	case OpLit:
		id = em.PIGates[e.Var]
	case OpNot:
		id = em.Net.AddGate(network.Not, em.Emit(e.Kids[0]))
	case OpAnd, OpOr:
		fanins := make([]int, len(e.Kids))
		for i, k := range e.Kids {
			fanins[i] = em.Emit(k)
		}
		t := network.And
		if e.Op == OpOr {
			t = network.Or
		}
		// Keep gates 2-input: the paper's cost model and the redundancy
		// analysis of Section 4 are formulated over 2-input gates.
		id = em.Net.BalancedTree(t, fanins)
	case OpXor:
		id = em.emitXor(e)
	}
	em.memo[e.key] = id
	return id
}

// emitXor builds the 2-input XOR tree for an n-ary XOR expression with
// support-aware operand pairing: operands whose supports nest (the
// signature of a rule (a)/(c) reduction opportunity) are paired first,
// then overlapping operands, and support-disjoint groups are joined by a
// balanced binary tree — the paper's Step 5 — except that pairs whose XOR
// gate already exists in the network are always taken first (reusing, for
// example, an adder's a⊕b between its sum and carry logic). This ordering
// is what makes the Section 4 redundancy analysis find its reducible XOR
// gates.
func (em *Emitter) emitXor(e *Expr) int {
	items := make([]xorItem, len(e.Kids))
	for i, k := range e.Kids {
		items[i] = xorItem{id: em.Emit(k), sup: em.support(k)}
	}
	var roots []xorItem
	for _, comp := range cube.Components(len(items), func(i int) cube.BitSet { return items[i].sup }) {
		group := make([]xorItem, len(comp))
		for k, i := range comp {
			group[k] = items[i]
		}
		// Greedy pairing inside the component.
		for len(group) > 1 {
			bi, bj, bestScore := 0, 1, -1
			for i := range group {
				for j := i + 1; j < len(group); j++ {
					si, sj := group[i].sup, group[j].sup
					score := 0
					if _, ok := em.Net.FindGate(network.Xor, group[i].id, group[j].id); ok {
						score += 1 << 21 // the pair gate already exists
					}
					if si.SubsetOf(sj) || sj.SubsetOf(si) {
						score += 1 << 20 // reduction-shaped pair
					}
					inter := si.Clone()
					inter.IntersectWith(sj)
					score += inter.Count()
					if score > bestScore {
						bi, bj, bestScore = i, j, score
					}
				}
			}
			group = mergePair(em, group, bi, bj)
		}
		roots = append(roots, group[0])
	}
	// Join disjoint components, taking already-existing pairs first, the
	// rest as a balanced tree.
	for len(roots) > 1 {
		merged := false
		for i := 0; i < len(roots) && !merged; i++ {
			for j := i + 1; j < len(roots); j++ {
				if _, ok := em.Net.FindGate(network.Xor, roots[i].id, roots[j].id); ok {
					roots = mergePair(em, roots, i, j)
					merged = true
					break
				}
			}
		}
		if !merged {
			// One balanced level.
			var next []xorItem
			for i := 0; i+1 < len(roots); i += 2 {
				next = append(next, em.pairItems(roots[i], roots[i+1]))
			}
			if len(roots)%2 == 1 {
				next = append(next, roots[len(roots)-1])
			}
			roots = next
		}
	}
	return roots[0].id
}

// xorItem is an operand of an XOR tree under construction.
type xorItem struct {
	id  int
	sup cube.BitSet
}

func (em *Emitter) pairItems(a, b xorItem) xorItem {
	s := a.sup.Clone()
	s.UnionWith(b.sup)
	return xorItem{id: em.Net.AddGate(network.Xor, a.id, b.id), sup: s}
}

func mergePair(em *Emitter, group []xorItem, bi, bj int) []xorItem {
	merged := em.pairItems(group[bi], group[bj])
	ng := group[:0:0]
	for k := range group {
		if k != bi && k != bj {
			ng = append(ng, group[k])
		}
	}
	return append(ng, merged)
}

// support returns the variable support of an expression, memoized.
func (em *Emitter) support(e *Expr) cube.BitSet {
	if s, ok := em.supCache[e.key]; ok {
		return s
	}
	s := cube.NewBitSet(len(em.PIGates))
	if e.Op == OpLit {
		s.Set(e.Var)
	}
	for _, k := range e.Kids {
		s.UnionWith(em.support(k))
	}
	em.supCache[e.key] = s
	return s
}
