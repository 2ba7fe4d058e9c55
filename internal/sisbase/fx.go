package sisbase

import (
	"sort"
	"strconv"

	"repro/internal/cube"
	"repro/internal/sop"
)

// Divide performs weak (algebraic) division of cover f by divisor d over
// the global signal space: f = d·q + r with support(d) ∩ support(q) = ∅.
// An empty quotient means the division found nothing, and r is then nil.
func Divide(f, d *sop.Cover) (q, r *sop.Cover) {
	capSig := f.NumVars
	q = sop.NewCover(capSig)
	if len(d.Terms) == 0 {
		return q, nil
	}
	dsup := d.Support()
	var qKeys map[string]sop.Term
	for _, dt := range d.Terms {
		cur := make(map[string]sop.Term)
		for _, t := range f.Terms {
			if !dt.Pos.SubsetOf(t.Pos) || !dt.Neg.SubsetOf(t.Neg) {
				continue
			}
			qt := t.Clone()
			qt.Pos.DifferenceWith(dt.Pos)
			qt.Neg.DifferenceWith(dt.Neg)
			// Algebraic division: the quotient must not share support
			// with the divisor.
			if qt.Pos.Intersects(dsup) || qt.Neg.Intersects(dsup) {
				continue
			}
			cur[qt.Key()] = qt
		}
		if qKeys == nil {
			qKeys = cur
		} else {
			for k := range qKeys {
				if _, ok := cur[k]; !ok {
					delete(qKeys, k)
				}
			}
		}
		if len(qKeys) == 0 {
			return q, nil
		}
	}
	// Emit quotient terms in sorted-key order: qKeys is a map, and the
	// quotient's term order propagates into host covers and from there
	// into the decomposed network structure, so it must not depend on
	// map iteration order.
	keys := make([]string, 0, len(qKeys))
	for k := range qKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	r = sop.NewCover(capSig)
	covered := make(map[string]bool)
	for _, k := range keys {
		qt := qKeys[k]
		q.Add(qt.Clone())
		for _, dt := range d.Terms {
			p := qt.Clone()
			p.Pos.UnionWith(dt.Pos)
			p.Neg.UnionWith(dt.Neg)
			covered[p.Key()] = true
		}
	}
	for _, t := range f.Terms {
		if !covered[t.Key()] {
			r.Add(t.Clone())
		}
	}
	return q, r
}

// litKey encodes a (variable, phase) literal.
type litKey struct {
	v   int
	pos bool
}

// divisorCand is a candidate divisor found during fast extract. A
// double-cube candidate's cover is built only if it wins, from dc.
type divisorCand struct {
	cover *sop.Cover
	value int
	key   string
	dc    *doubleCube
}

// FastExtract repeatedly extracts the best single-cube (two-literal) or
// double-cube divisor until none has positive value (the fx command of
// SIS, after Rajski/Vasudevamurthy).
func (n *Net) FastExtract() {
	for iter := 0; iter < 200; iter++ {
		best := n.bestDivisor()
		if best == nil || best.value <= 0 {
			return
		}
		nd := n.newNode(best.cover)
		if nd == nil {
			// Signal space exhausted: stop extracting; the network so far
			// is still valid.
			return
		}
		// The complement of a 2-cube divisor is itself small (e.g. the
		// complement of a'b+ab' is ab+a'b'); dividing by it lets hosts use
		// the node's negative literal — this is what reconstructs XOR
		// structure inside an AND/OR network, as SIS fast_extract does.
		var comp *sop.Cover
		if len(best.cover.Terms) == 2 {
			c := best.cover.Complement()
			if len(c.Terms) <= 2 {
				comp = c
			}
		}
		// Substitute into every node where it (or its complement) divides.
		for _, id := range n.liveOrder() {
			host := n.Nodes[id]
			if host.ID == nd.ID || host.IsPI || host.Dead {
				continue
			}
			q, r := Divide(host.Cover, best.cover)
			if len(q.Terms) > 0 {
				out := sop.NewCover(n.sigCap)
				for _, qt := range q.Terms {
					t := qt.Clone()
					t.SetPos(nd.ID)
					out.Add(t)
				}
				out.Terms = append(out.Terms, r.Terms...)
				host.Cover = out
			}
			if comp == nil {
				continue
			}
			q, r = Divide(host.Cover, comp)
			if len(q.Terms) > 0 {
				newLits := q.Literals() + len(q.Terms) + r.Literals()
				if newLits < host.Cover.Literals() {
					out := sop.NewCover(n.sigCap)
					for _, qt := range q.Terms {
						t := qt.Clone()
						t.SetNeg(nd.ID)
						out.Add(t)
					}
					out.Terms = append(out.Terms, r.Terms...)
					host.Cover = out
				}
			}
		}
	}
}

// bestDivisor scans all node covers for the highest-value single-cube
// pair divisor or double-cube divisor.
func (n *Net) bestDivisor() *divisorCand {
	live := n.liveOrder()
	// Single-cube candidates: co-occurring literal pairs.
	pairCount := make(map[[2]litKey]int)
	// Double-cube candidates keyed canonically, in first-seen order.
	dcIndex := make(map[string]int)
	var dcs []doubleCube
	var r remainders

	for _, id := range live {
		c := n.Nodes[id].Cover
		for ti, t := range c.Terms {
			lits := termLits(t)
			for i := 0; i < len(lits); i++ {
				for j := i + 1; j < len(lits); j++ {
					k := [2]litKey{lits[i], lits[j]}
					pairCount[k]++
				}
			}
			// Double-cube: pair with later terms of the same node.
			for tj := ti + 1; tj < len(c.Terms); tj++ {
				u := c.Terms[tj]
				if !r.of(t, u) {
					continue
				}
				if i, seen := dcIndex[string(r.key)]; seen {
					dcs[i].count++
					continue
				}
				dcIndex[string(r.key)] = len(dcs)
				dcs = append(dcs, doubleCube{key: string(r.key), count: 1, lits: r.lits(), a: t, b: u})
			}
		}
	}

	var best *divisorCand
	consider := func(c *divisorCand) {
		if best == nil || c.value > best.value || (c.value == best.value && c.key < best.key) {
			best = c
		}
	}
	for k, cnt := range pairCount {
		if cnt < 2 {
			continue
		}
		// Extracting a 2-literal cube used in cnt terms: each use shrinks
		// by one literal; the new node costs 2 literals.
		value := cnt - 2
		if value <= 0 {
			continue
		}
		c := sop.NewCover(n.sigCap)
		t := sop.NewTerm(n.sigCap)
		setLit(&t, k[0])
		setLit(&t, k[1])
		c.Add(t)
		consider(&divisorCand{cover: c, value: value, key: t.Key()})
	}
	for i := range dcs {
		d := &dcs[i]
		if d.count < 2 {
			continue
		}
		// Each of cnt uses replaces lits literals (plus its base copies)
		// by one; the node itself costs lits.
		value := (d.count-1)*d.lits - d.count
		if value <= 0 {
			continue
		}
		consider(&divisorCand{value: value, key: d.key, dc: d})
	}
	if best != nil && best.dc != nil {
		r.of(best.dc.a, best.dc.b)
		best.cover = r.divisor(n.sigCap)
	}
	return best
}

// doubleCube tallies the term pairs that share one double-cube divisor.
type doubleCube struct {
	key   string
	count int
	lits  int      // literals of the divisor
	a, b  sop.Term // the first pair with this divisor, which builds it
}

// remainders holds the two remainder cubes of a term pair once their
// common literals ("base") are removed, and the pair's divisor key: the
// two Term.Key strings in ascending order, joined by "/". Its buffers
// are reused from pair to pair.
type remainders struct {
	aPos, aNeg, bPos, bNeg cube.BitSet
	ka, kb, key            []byte
}

// of computes the remainders of the pair (a, b) and reports whether they
// form a double-cube divisor. They do not when the pair is degenerate:
// one term contains the other, or the two remainders share a variable
// (then the pair is not an algebraic divisor of anything through weak
// division). Most pairs are degenerate, so the key is built only after
// that check.
func (r *remainders) of(a, b sop.Term) bool {
	r.aPos = difference(r.aPos, a.Pos, b.Pos)
	r.aNeg = difference(r.aNeg, a.Neg, b.Neg)
	r.bPos = difference(r.bPos, b.Pos, a.Pos)
	r.bNeg = difference(r.bNeg, b.Neg, a.Neg)
	var restA, restB uint64
	for w := 0; w < max(len(r.aPos), len(r.aNeg), len(r.bPos), len(r.bNeg)); w++ {
		ra := r.aPos.Word(w) | r.aNeg.Word(w)
		rb := r.bPos.Word(w) | r.bNeg.Word(w)
		if ra&rb != 0 {
			return false
		}
		restA |= ra
		restB |= rb
	}
	if restA == 0 || restB == 0 {
		return false
	}
	r.ka = appendTermKey(r.ka[:0], r.aPos, r.aNeg)
	r.kb = appendTermKey(r.kb[:0], r.bPos, r.bNeg)
	lo, hi := r.ka, r.kb
	if string(hi) < string(lo) {
		lo, hi = hi, lo
	}
	r.key = append(append(append(r.key[:0], lo...), '/'), hi...)
	return true
}

// lits returns the literal count of the remainders.
func (r *remainders) lits() int {
	return r.aPos.Count() + r.aNeg.Count() + r.bPos.Count() + r.bNeg.Count()
}

// divisor returns the remainders as a two-term cover.
func (r *remainders) divisor(capSig int) *sop.Cover {
	c := sop.NewCover(capSig)
	c.Add(sop.Term{Pos: r.aPos, Neg: r.aNeg}.Clone())
	c.Add(sop.Term{Pos: r.bPos, Neg: r.bNeg}.Clone())
	return c
}

// difference sets dst to s minus t, with s's length, reusing dst's
// storage.
func difference(dst, s, t cube.BitSet) cube.BitSet {
	dst = append(dst[:0], s...)
	dst.DifferenceWith(t)
	return dst
}

// appendTermKey appends sop.Term.Key of the term with literal sets pos
// and neg: each set's words in hex up to its last nonzero word, each
// followed by ",", the two sets joined by "|".
func appendTermKey(buf []byte, pos, neg cube.BitSet) []byte {
	for i, s := range []cube.BitSet{pos, neg} {
		if i > 0 {
			buf = append(buf, '|')
		}
		end := len(s)
		for end > 0 && s[end-1] == 0 {
			end--
		}
		for _, w := range s[:end] {
			buf = strconv.AppendUint(buf, w, 16)
			buf = append(buf, ',')
		}
	}
	return buf
}

func termLits(t sop.Term) []litKey {
	var out []litKey
	t.Pos.ForEach(func(v int) { out = append(out, litKey{v, true}) })
	t.Neg.ForEach(func(v int) { out = append(out, litKey{v, false}) })
	return out
}

func setLit(t *sop.Term, k litKey) {
	if k.pos {
		t.SetPos(k.v)
	} else {
		t.SetNeg(k.v)
	}
}

// Resub tries every existing node as an algebraic divisor of every other
// node (SIS resub, positive phase).
func (n *Net) Resub() {
	order := n.liveOrder()
	// Precompute supports and transitive fanin sets to avoid cycles.
	sup := make(map[int]map[int]bool)
	var tfi func(int, map[int]bool)
	tfi = func(id int, acc map[int]bool) {
		if acc[id] {
			return
		}
		acc[id] = true
		nd := n.Nodes[id]
		if nd.IsPI || nd.Cover == nil {
			return
		}
		nd.Cover.Support().ForEach(func(v int) { tfi(v, acc) })
	}
	for _, id := range order {
		acc := make(map[int]bool)
		tfi(id, acc)
		sup[id] = acc
	}
	// Each divisor's complement is computed once per pass, and again only
	// after its node took a new cover: covers are replaced here, never
	// changed in place.
	type complement struct{ of, is *sop.Cover }
	comps := make(map[int]complement)
	divisors := append([]int(nil), order...)
	sort.Slice(divisors, func(a, b int) bool {
		return n.Nodes[divisors[a]].Cover.Literals() > n.Nodes[divisors[b]].Cover.Literals()
	})
	for _, target := range order {
		tn := n.Nodes[target]
		if tn.Dead || len(tn.Cover.Terms) < 2 {
			continue
		}
		for _, div := range divisors {
			if div == target || n.Nodes[div].Dead {
				continue
			}
			dn := n.Nodes[div]
			if len(dn.Cover.Terms) < 2 {
				continue // single cubes handled by fx
			}
			// Avoid creating a cycle: the divisor must not depend on the
			// target.
			if sup[div][target] {
				continue
			}
			// Positive phase.
			q, r := Divide(tn.Cover, dn.Cover)
			if len(q.Terms) > 0 {
				newLits := q.Literals() + len(q.Terms) + r.Literals()
				if newLits < tn.Cover.Literals() {
					out := sop.NewCover(n.sigCap)
					for _, qt := range q.Terms {
						t := qt.Clone()
						t.SetPos(div)
						out.Add(t)
					}
					out.Terms = append(out.Terms, r.Terms...)
					tn.Cover = out
				}
			}
			// Negative phase, when the complement stays small.
			if len(dn.Cover.Terms) <= 3 {
				c, ok := comps[div]
				if !ok || c.of != dn.Cover {
					c = complement{dn.Cover, dn.Cover.Complement()}
					comps[div] = c
				}
				if comp := c.is; len(comp.Terms) <= 3 {
					q, r = Divide(tn.Cover, comp)
					if len(q.Terms) > 0 {
						newLits := q.Literals() + len(q.Terms) + r.Literals()
						if newLits < tn.Cover.Literals() {
							out := sop.NewCover(n.sigCap)
							for _, qt := range q.Terms {
								t := qt.Clone()
								t.SetNeg(div)
								out.Add(t)
							}
							out.Terms = append(out.Terms, r.Terms...)
							tn.Cover = out
						}
					}
				}
			}
		}
	}
}
