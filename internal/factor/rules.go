package factor

import (
	"slices"

	"repro/internal/obs"
)

// ApplyRules rewrites the expression with the paper's Reduction rules
// (a)-(c) at XOR nodes and the OR-factoring rule (e), bottom-up, repeating
// whole passes until a fixpoint or maxPasses. fo counts the passes and
// rule applications; nil disables collection.
func ApplyRules(e *Expr, maxPasses int, fo *obs.Factor) *Expr {
	for pass := 0; pass < maxPasses; pass++ {
		fo.Pass()
		memo := make(map[string]*Expr)
		ne := rewrite(e, memo, fo)
		if ne.key == e.key {
			return ne
		}
		e = ne
	}
	return e
}

func rewrite(e *Expr, memo map[string]*Expr, fo *obs.Factor) *Expr {
	if r, ok := memo[e.key]; ok {
		return r
	}
	var out *Expr
	switch e.Op {
	case OpConst0, OpConst1, OpLit:
		out = e
	case OpNot:
		out = notDeMorgan(rewrite(e.Kids[0], memo, fo))
	case OpAnd:
		kids := rewriteKids(e.Kids, memo, fo)
		out = AndN(kids...)
	case OpOr:
		kids := rewriteKids(e.Kids, memo, fo)
		out = factorOr(kids, fo)
	case OpXor:
		kids := rewriteKids(e.Kids, memo, fo)
		out = reduceXor(kids, fo)
	}
	memo[e.key] = out
	return out
}

func rewriteKids(kids []*Expr, memo map[string]*Expr, fo *obs.Factor) []*Expr {
	out := make([]*Expr, len(kids))
	for i, k := range kids {
		out[i] = rewrite(k, memo, fo)
	}
	return out
}

// notDeMorgan returns the complement of e, as the OR of the complements
// of its factors when e is a product (De Morgan): a negated product reads
// (and costs) the same as that OR, the shape rule (c) produces.
func notDeMorgan(e *Expr) *Expr {
	if e.Op != OpAnd {
		return Not(e)
	}
	nots := make([]*Expr, len(e.Kids))
	for i, k := range e.Kids {
		nots[i] = Not(k)
	}
	return OrN(nots...)
}

// andFactors views an expression as a product of factors: the kids of an
// AND, or the expression itself.
func andFactors(e *Expr) []*Expr {
	if e.Op == OpAnd {
		return e.Kids
	}
	return []*Expr{e}
}

// factorSetContains reports whether every factor of a appears among the
// factors of b (by key), and a has strictly fewer factors.
func properFactorSubset(a, b []*Expr) bool {
	if len(a) >= len(b) {
		return false
	}
	keys := make(map[string]bool, len(b))
	for _, f := range b {
		keys[f.key] = true
	}
	for _, f := range a {
		if !keys[f.key] {
			return false
		}
	}
	return true
}

// removeFactors returns AndN of b's factors minus a's (by key).
func removeFactors(b, a []*Expr) *Expr {
	drop := make(map[string]bool, len(a))
	for _, f := range a {
		drop[f.key] = true
	}
	var rest []*Expr
	for _, f := range b {
		if !drop[f.key] {
			rest = append(rest, f)
		}
	}
	return AndN(rest...)
}

// reduceXor applies rules (b), (a), (c) to the operand list of an XOR
// until none fires, then extracts common factors across the remaining
// operands (rule (d) at expression level) and reassembles. Rules (a) and
// (c) are applied in generalized form: because XorN flattens nested XORs,
// a divisor that is itself an XOR appears spread across the operand list,
// and the rules must recognize it there.
func reduceXor(kids []*Expr, fo *obs.Factor) *Expr {
	// Reconstruct through XorN first so flattening/cancellation happen.
	x := XorN(kids...)
	neg := false
	if x.Op == OpNot {
		neg, x = true, x.Kids[0]
	}
	if x.Op != OpXor {
		if neg {
			return Not(x)
		}
		return x
	}
	kids = append([]*Expr(nil), x.Kids...)

	changed := true
	for changed && len(kids) >= 2 {
		changed = false
		byKey := make(map[string]int, len(kids))
		for i, k := range kids {
			byKey[k.key] = i
		}
		// Rule (b): X ⊕ Y ⊕ XY = X + Y.
	ruleB:
		for i := 0; i < len(kids) && !changed; i++ {
			for j := i + 1; j < len(kids); j++ {
				prod := AndN(kids[i], kids[j])
				if k, ok := byKey[prod.key]; ok && k != i && k != j {
					or := OrN(kids[i], kids[j])
					kids = removeIdx(kids, i, j, k)
					kids = append(kids, or)
					fo.RuleB()
					changed = true
					break ruleB
				}
			}
		}
		if changed {
			continue
		}
		// Rule (a), direct form: A ⊕ AB = A·B̄ where A is an operand.
	ruleA:
		for i := 0; i < len(kids) && !changed; i++ {
			fi := andFactors(kids[i])
			for j := 0; j < len(kids); j++ {
				if i == j {
					continue
				}
				fj := andFactors(kids[j])
				if properFactorSubset(fi, fj) {
					aNotB := AndN(kids[i], Not(removeFactors(fj, fi)))
					kids = append(removeIdx(kids, i, j), aNotB)
					fo.RuleA()
					changed = true
					break ruleA
				}
			}
		}
		if changed {
			continue
		}
		// Rule (a), spread form: G ⊕ G·B = G·B̄ where G is an XOR factor
		// of an operand and G's own operands all appear in the list
		// (flattening spread G out).
	ruleASpread:
		for j := 0; j < len(kids) && !changed; j++ {
			for _, f := range andFactors(kids[j]) {
				if f.Op != OpXor {
					continue
				}
				idx := make([]int, 0, len(f.Kids))
				ok := true
				for _, gk := range f.Kids {
					i, found := byKey[gk.key]
					if !found || i == j {
						ok = false
						break
					}
					idx = append(idx, i)
				}
				if !ok {
					continue
				}
				b := removeFactors(andFactors(kids[j]), []*Expr{f})
				idx = append(idx, j)
				kids = removeIdx(kids, idx...)
				kids = append(kids, AndN(f, Not(b)))
				fo.RuleA()
				changed = true
				break ruleASpread
			}
		}
		if changed {
			continue
		}
		// Rule (c): AB ⊕ B̄ = A + B̄, detected as an operand whose
		// complement is a factor of another operand (either phase).
	ruleC:
		for j := 0; j < len(kids) && !changed; j++ {
			for _, f := range andFactors(kids[j]) {
				comp := Not(f)
				i, found := byKey[comp.key]
				if !found || i == j {
					continue
				}
				a := removeFactors(andFactors(kids[j]), []*Expr{f})
				kids = removeIdx(kids, i, j)
				kids = append(kids, OrN(a, comp))
				fo.RuleC()
				changed = true
				break ruleC
			}
		}
	}
	out := factorXorKids(kids, fo)
	if neg {
		return notDeMorgan(out)
	}
	return out
}

// factorXorKids applies rule (d) at the expression level: extract the most
// frequent common AND-factor among the XOR operands, recursively, so that
// AB ⊕ AC becomes A(B ⊕ C) even when A is a complex shared subexpression.
func factorXorKids(kids []*Expr, fo *obs.Factor) *Expr {
	x := XorN(kids...)
	neg := x.Op == OpNot
	if neg {
		x = x.Kids[0]
	}
	out := x
	if x.Op == OpXor {
		if f, quots, rest := commonFactor(x.Kids); f != nil {
			fo.RuleD()
			out = AndN(f, factorXorKids(quots, fo))
			if len(rest) > 0 {
				out = XorN(out, factorXorKids(rest, fo))
			}
		}
	}
	if neg {
		out = Not(out)
	}
	return out
}

// factorOr applies rule (e): extract the most frequent common factor among
// the OR operands, recursively. Operands sharing the factor are divided by
// it and grouped as factor·(OR of quotients).
func factorOr(kids []*Expr, fo *obs.Factor) *Expr {
	o := OrN(kids...)
	if o.Op != OpOr {
		return o
	}
	f, quots, rest := commonFactor(o.Kids)
	if f == nil {
		return o
	}
	fo.RuleE()
	out := AndN(f, factorOr(quots, fo))
	if len(rest) > 0 {
		out = OrN(out, factorOr(rest, fo))
	}
	return out
}

// commonFactor picks the AND-factor (see andFactors) shared by the most
// operands, ties going to the smallest key, and splits the operands into
// the quotients of those it divides and the rest, in operand order. f is
// nil when no factor is shared by two operands.
func commonFactor(kids []*Expr) (f *Expr, quots, rest []*Expr) {
	count := map[string]int{}
	repr := map[string]*Expr{}
	for _, k := range kids {
		for _, g := range andFactors(k) {
			count[g.key]++
			repr[g.key] = g
		}
	}
	bestKey, bestC := "", 1
	for key, c := range count {
		if c > bestC || c == bestC && key < bestKey {
			bestKey, bestC = key, c
		}
	}
	if bestKey == "" {
		return nil, nil, nil
	}
	f = repr[bestKey]
	for _, k := range kids {
		fs := andFactors(k)
		if slices.ContainsFunc(fs, func(g *Expr) bool { return g.key == bestKey }) {
			quots = append(quots, removeFactors(fs, []*Expr{f}))
		} else {
			rest = append(rest, k)
		}
	}
	return f, quots, rest
}

// removeIdx returns kids without the listed indices (order preserved).
func removeIdx(kids []*Expr, idx ...int) []*Expr {
	drop := make(map[int]bool, len(idx))
	for _, i := range idx {
		drop[i] = true
	}
	out := kids[:0:0]
	for i, k := range kids {
		if !drop[i] {
			out = append(out, k)
		}
	}
	return out
}
