package verify

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/bdd"
	"repro/internal/budget"
	"repro/internal/cube"
	"repro/internal/network"
	"repro/internal/wordgen"
)

// This file implements word-level verification of a synthesized network
// against a wordgen.Spec. The primary engine is backward polynomial
// substitution (Yu & Ciesielski): start from the word-level output
// polynomial, eliminate internal gates in reverse topological order by
// substituting each gate's definition polynomial, and compare the
// residue over the PIs with the specification polynomial. For integer
// adders and multipliers the rewriting runs over Z on the full weighted
// output sum — the carry cancellations that keep the polynomial small
// only happen across the whole word, so this mode is global, with the
// substitution fan-out parallelized inside each step. For GF(2)-linear
// and GF(2^k) circuits every output bit is carry-free and independent,
// so the check shards one output cone per worker — the parallel claim
// of the source paper. Narrow instances fall back to BDD or simulation
// under the same budget discipline.
//
// The two engines have complementary blind spots: backward rewriting is
// polynomial on non-redundant structures (ripple adders, array and
// Wallace multipliers, GF circuits) but blows up on redundant parallel-
// prefix carry logic (Kogge-Stone), while BDDs are linear-size for any
// adder under an interleaved operand order yet exponential for
// multipliers. ModeAuto routes each kind to the engine that is
// polynomial for it and uses the other as the budget-governed fallback.

// Mode selects the word-level checking engine.
type Mode int

// Word-level checking modes.
const (
	// ModeAuto dispatches on instance shape: BDDs for narrow instances
	// and for integer adders at any width (adder BDDs are linear-size
	// under the interleaved operand order, while redundant prefix
	// structures blow backward rewriting up); the algebraic engine for
	// everything wide. Whichever engine goes first falls back to the
	// other when a non-fatal budget cap trips.
	ModeAuto Mode = iota
	ModeAlgebraic
	ModeBDD
	ModeSim
)

// String names the mode for reports.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeAlgebraic:
		return "algebraic"
	case ModeBDD:
		return "bdd"
	case ModeSim:
		return "sim"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// autoBDDInputs is the PI count at or below which ModeAuto prefers the
// BDD engine: 2^20 minterm space is where the package's exhaustive and
// BDD checks are known cheap.
const autoBDDInputs = 20

// WordOptions configures Word.
type WordOptions struct {
	Mode Mode
	// Workers bounds the checking parallelism (shards for per-bit GF
	// modes, substitution fan-out chunks for the global Z mode).
	// 0 means GOMAXPROCS.
	Workers int
	// Budget caps the run (cubes cap bounds live monomials, steps cap
	// bounds produced terms and BDD ITE work, BDD node cap bounds the
	// fallback manager). nil means unlimited.
	Budget *budget.Budget
}

// WordResult reports a completed word-level check. Results are
// deterministic for a given (network, spec, mode): worker count changes
// neither OK, Mismatch, Monomials nor Shards.
type WordResult struct {
	OK   bool
	Mode string // engine that produced the verdict: "algebraic", "bdd", "sim"
	// Mismatch localizes the first disagreement when OK is false.
	Mismatch *WordMismatch
	// Monomials is the peak live monomial count of an algebraic run
	// (measured at gate-elimination boundaries, so it is independent of
	// worker count). Zero for other engines.
	Monomials int
	// Shards is the number of independently checked slices: output bits
	// for the per-bit GF engines, 1 for the global Z engine and BDD/sim.
	Shards int
}

// WordMismatch localizes a word-level disagreement.
type WordMismatch struct {
	Word string // output word name
	Bit  int    // bit index within the word; -1 when not bit-localized
	Pos  int    // PO position; -1 when not bit-localized
	// Detail is a human-readable description of the disagreement (a
	// differing monomial, or a concrete counterexample assignment).
	Detail string
}

func (m *WordMismatch) String() string {
	if m.Bit < 0 {
		return fmt.Sprintf("word %q: %s", m.Word, m.Detail)
	}
	return fmt.Sprintf("word %q bit %d (output %d): %s", m.Word, m.Bit, m.Pos, m.Detail)
}

// WordShapeError reports a word-level spec whose bit map does not fit
// the network: it names the word and bit index that disagrees, rather
// than the generic count mismatch the network-vs-network prechecks
// produce.
type WordShapeError struct {
	Circuit string
	Side    string // "input" or "output"
	Word    string // word name; empty for whole-side coverage errors
	Bit     int    // bit index within the word; -1 for coverage errors
	Pos     int    // the PI/PO position the bit names; for coverage errors, the covered count
	Have    int    // the network's PI/PO count on that side
	Reason  string // "out of range", "claimed twice", "incomplete cover"
}

func (e *WordShapeError) Error() string {
	if e.Bit < 0 {
		return fmt.Sprintf("verify: %s: %s words cover %d of %d network %ss (%s)",
			e.Circuit, e.Side, e.Pos, e.Have, e.Side, e.Reason)
	}
	return fmt.Sprintf("verify: %s: %s word %q bit %d names %s position %d (%s; network has %d)",
		e.Circuit, e.Side, e.Word, e.Bit, e.Side, e.Pos, e.Reason, e.Have)
}

// CheckWordShape verifies that the spec's words tile the network's
// interface exactly: every named PI/PO position exists, none is claimed
// twice, and every PI and PO belongs to some word (otherwise the word
// model and the network disagree about the function's arity before any
// functional check can run).
func CheckWordShape(net *network.Network, ws *wordgen.Spec) error {
	check := func(side string, words []wordgen.Word, have int) error {
		seen := make([]bool, have)
		covered := 0
		for _, w := range words {
			for b, pos := range w.Bits {
				if pos < 0 || pos >= have {
					return &WordShapeError{Circuit: ws.Name, Side: side, Word: w.Name,
						Bit: b, Pos: pos, Have: have, Reason: "out of range"}
				}
				if seen[pos] {
					return &WordShapeError{Circuit: ws.Name, Side: side, Word: w.Name,
						Bit: b, Pos: pos, Have: have, Reason: "claimed twice"}
				}
				seen[pos] = true
				covered++
			}
		}
		if covered != have {
			return &WordShapeError{Circuit: ws.Name, Side: side,
				Bit: -1, Pos: covered, Have: have, Reason: "incomplete cover"}
		}
		return nil
	}
	if err := check("input", ws.In, net.NumPIs()); err != nil {
		return err
	}
	return check("output", ws.Out, net.NumPOs())
}

// Word checks a network against a word-level spec. The error return
// carries shape mismatches (*WordShapeError) and budget exhaustion
// (*budget.Err); functional disagreement is not an error — it comes
// back as OK=false with a Mismatch.
func Word(net *network.Network, ws *wordgen.Spec, opt WordOptions) (*WordResult, error) {
	if err := CheckWordShape(net, ws); err != nil {
		return nil, err
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	switch opt.Mode {
	case ModeAlgebraic:
		return algebraicWord(net, ws, opt)
	case ModeBDD:
		return bddWord(net, ws, opt)
	case ModeSim:
		return simWord(net, ws)
	case ModeAuto:
		first, second := algebraicWord, bddWord
		if net.NumPIs() <= autoBDDInputs || ws.Kind == wordgen.KindIntAdd {
			first, second = bddWord, algebraicWord
		}
		r, err := first(net, ws, opt)
		if err != nil && budget.IsExceeded(err) && opt.Budget.Exceeded() == nil {
			// The first engine hit a local cap (cubes, nodes) but the
			// budget itself is still live — give the other engine the
			// remainder.
			if r2, err2 := second(net, ws, opt); err2 == nil {
				return r2, nil
			}
		}
		return r, err
	}
	return nil, fmt.Errorf("verify: unknown word mode %d", int(opt.Mode))
}

// algebraicWord dispatches on the spec kind: global Z rewriting for
// integer arithmetic, per-output-bit GF(2) rewriting for linear and
// Galois-field circuits.
func algebraicWord(net *network.Network, ws *wordgen.Spec, opt WordOptions) (res *WordResult, err error) {
	gerr := budget.Guard(func() {
		switch ws.Kind {
		case wordgen.KindIntAdd, wordgen.KindIntMul:
			res = globalZ(net, ws, opt)
		case wordgen.KindXorLinear, wordgen.KindGFMul:
			res = perBitGF(net, ws, opt)
		default:
			err = fmt.Errorf("verify: no algebraic model for kind %s", ws.Kind)
		}
	})
	if gerr != nil {
		return nil, gerr
	}
	return res, err
}

// specZPoly builds the specification polynomial over PI gate IDs: the
// integer value the weighted output sum must equal.
func specZPoly(net *network.Network, ws *wordgen.Spec) *zpoly {
	wordPoly := func(w wordgen.Word) []defTerm {
		ts := make([]defTerm, 0, len(w.Bits))
		for b, pos := range w.Bits {
			c := new(big.Int).Lsh(big.NewInt(1), uint(w.Shift+b))
			ts = append(ts, defTerm{[]int{net.PIs[pos]}, c})
		}
		return ts
	}
	spec := newZPoly()
	switch ws.Kind {
	case wordgen.KindIntAdd:
		for _, w := range ws.In {
			for _, t := range wordPoly(w) {
				spec.add(t.vars, t.coef)
			}
		}
	case wordgen.KindIntMul:
		for _, t := range defMul(wordPoly(ws.In[0]), wordPoly(ws.In[1])) {
			spec.add(t.vars, t.coef)
		}
	}
	return spec
}

// globalZ runs backward rewriting over Z on the full weighted output
// polynomial. Mid-word output bits of an adder or multiplier have
// exponential per-bit polynomials — only the weighted sum cancels the
// carries — so this engine is one global pass; parallelism lives inside
// each substitution step (the per-term products are chunked across
// workers, then merged deterministically).
func globalZ(net *network.Network, ws *wordgen.Spec, opt WordOptions) *WordResult {
	p := newZPoly()
	for _, w := range ws.Out {
		for b, pos := range w.Bits {
			c := new(big.Int).Lsh(big.NewInt(1), uint(w.Shift+b))
			p.add([]int{net.POs[pos].Gate}, c)
		}
	}
	// Subtract the spec up front: rewriting is linear, so eliminating
	// gates from (outputs - spec) reaches zero exactly when the network
	// implements the spec. This also lets spec monomials cancel against
	// rewritten output monomials early, keeping the polynomial small.
	negOne := big.NewInt(-1)
	for _, t := range specZPoly(net, ws).terms {
		p.add(t.vars, new(big.Int).Mul(t.coef, negOne))
	}

	peak := rewriteZ(net, p, opt.Budget, opt.Workers)

	res := &WordResult{Mode: "algebraic", Monomials: peak, Shards: 1}
	if p.len() == 0 {
		res.OK = true
		return res
	}
	res.Mismatch = &WordMismatch{
		Word: ws.Out[0].Name, Bit: -1, Pos: -1,
		Detail: fmt.Sprintf("weighted output sum differs from the %s spec by %d monomials; e.g. %s",
			ws.Kind, p.len(), renderZTerm(net, smallestZTerm(p))),
	}
	return res
}

// rewriteZ eliminates every non-PI variable of p in reverse topological
// order and returns the peak live monomial count, measured at gate
// boundaries so it is independent of worker count.
func rewriteZ(net *network.Network, p *zpoly, bud *budget.Budget, workers int) int {
	topo := net.TopoOrder()
	peak := p.len()
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		g := &net.Gates[id]
		if g.Type == network.PI {
			continue
		}
		occ := p.occ[id]
		if len(occ) == 0 {
			continue
		}
		keys := make([]string, 0, len(occ))
		for k := range occ {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		old := make([]*zterm, len(keys))
		for j, k := range keys {
			old[j] = p.remove(k)
		}
		def := gateDefZ(g.Type, g.Fanins)
		// Expand the removed terms' products in parallel chunks — each
		// worker writes only its own rows of exp — then merge and account
		// sequentially in index order, so the live polynomial, the peak
		// metric, and the budget spend are bit-identical at any worker
		// count.
		exp := make([][]defTerm, len(old))
		expand := func(lo, hi int) {
			for j := lo; j < hi; j++ {
				t := old[j]
				rest := without(t.vars, id)
				row := make([]defTerm, 0, len(def))
				for _, dt := range def {
					row = append(row, defTerm{unionVars(rest, dt.vars), new(big.Int).Mul(t.coef, dt.coef)})
				}
				exp[j] = row
			}
		}
		const minChunk = 128
		if workers > 1 && len(old) >= 2*minChunk {
			per := (len(old) + workers - 1) / workers
			if per < minChunk {
				per = minChunk
			}
			var wg sync.WaitGroup
			for lo := 0; lo < len(old); lo += per {
				hi := lo + per
				if hi > len(old) {
					hi = len(old)
				}
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					expand(lo, hi)
				}(lo, hi)
			}
			wg.Wait()
		} else {
			expand(0, len(old))
		}
		for _, row := range exp {
			stepBudget(bud, len(row))
			for _, nt := range row {
				p.add(nt.vars, nt.coef)
			}
		}
		bud.CheckCubes("algebraic", int64(p.len()))
		if p.len() > peak {
			peak = p.len()
		}
	}
	return peak
}

// smallestZTerm picks the lexicographically smallest monomial —
// deterministic detail for mismatch reports.
func smallestZTerm(p *zpoly) *zterm {
	var bestKey string
	first := true
	for k := range p.terms {
		if first || k < bestKey {
			bestKey = k
			first = false
		}
	}
	return p.terms[bestKey]
}

// renderZTerm prints a monomial with PI names where available.
func renderZTerm(net *network.Network, t *zterm) string {
	s := t.coef.String()
	for _, v := range t.vars {
		name := net.Gates[v].Name
		if name == "" {
			name = fmt.Sprintf("g%d", v)
		}
		s += "·" + name
	}
	return s
}

// perBitGF checks each output cone independently over GF(2), sharded
// across the worker pool: carry-free circuits (parity, Hamming, GF(2^k)
// multipliers) have small per-bit Zhegalkin forms, so per-cone backward
// rewriting is embarrassingly parallel.
func perBitGF(net *network.Network, ws *wordgen.Spec, opt WordOptions) *WordResult {
	nPO := net.NumPOs()
	topo := net.TopoOrder()
	expected := expectedGF(net, ws)

	type bitOut struct {
		ok     bool
		peak   int
		detail string
	}
	outs := make([]bitOut, nPO)
	errs := make([]error, nPO)
	var wg sync.WaitGroup
	sem := make(chan struct{}, opt.Workers)
	for pos := 0; pos < nPO; pos++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(pos int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[pos] = budget.Guard(func() {
				ok, peak, detail := rewriteGFBit(net, topo, pos, expected[pos], opt.Budget)
				outs[pos] = bitOut{ok: ok, peak: peak, detail: detail}
			})
		}(pos)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			panic(err.(*budget.Err)) // re-enter the caller's Guard
		}
	}
	res := &WordResult{OK: true, Mode: "algebraic", Shards: nPO}
	posWord := poWords(ws)
	for pos, o := range outs {
		if o.peak > res.Monomials {
			res.Monomials = o.peak
		}
		if !o.ok && res.OK {
			res.OK = false
			w, b := posWord[pos][0], posWord[pos][1]
			res.Mismatch = &WordMismatch{Word: ws.Out[w].Name, Bit: b, Pos: pos, Detail: o.detail}
		}
	}
	return res
}

// poWords maps PO position -> (output word index, bit index).
func poWords(ws *wordgen.Spec) map[int][2]int {
	m := map[int][2]int{}
	for wi, w := range ws.Out {
		for b, pos := range w.Bits {
			m[pos] = [2]int{wi, b}
		}
	}
	return m
}

// expectedGF builds the expected Zhegalkin form of every output bit
// over PI gate IDs.
func expectedGF(net *network.Network, ws *wordgen.Spec) []map[string][]int {
	out := make([]map[string][]int, net.NumPOs())
	for i := range out {
		out[i] = map[string][]int{}
	}
	toggle := func(pos int, vars []int) {
		k := monoKey(vars)
		if _, ok := out[pos][k]; ok {
			delete(out[pos], k)
		} else {
			out[pos][k] = vars
		}
	}
	switch ws.Kind {
	case wordgen.KindXorLinear:
		for pos := range out {
			for _, pi := range ws.Linear[pos] {
				toggle(pos, []int{net.PIs[pi]})
			}
		}
	case wordgen.KindGFMul:
		a, b := ws.In[0], ws.In[1]
		w := ws.Width
		rt := wordgen.ReduceTable(w, ws.Poly)
		for i := 0; i < w; i++ {
			for j := 0; j < w; j++ {
				m := unionVars([]int{net.PIs[a.Bits[i]]}, []int{net.PIs[b.Bits[j]]})
				for _, ow := range ws.Out {
					for t, pos := range ow.Bits {
						if rt[i+j].Bit(ow.Shift+t) == 1 {
							toggle(pos, m)
						}
					}
				}
			}
		}
	}
	return out
}

// rewriteGFBit eliminates one output cone over GF(2) and compares the
// residue with the expected form.
func rewriteGFBit(net *network.Network, topo []int, pos int, expect map[string][]int, bud *budget.Budget) (ok bool, peak int, detail string) {
	p := newGFPoly()
	driver := net.POs[pos].Gate
	p.toggle([]int{driver})
	peak = 1
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		g := &net.Gates[id]
		if g.Type == network.PI {
			continue
		}
		occ := p.occ[id]
		if len(occ) == 0 {
			continue
		}
		keys := make([]string, 0, len(occ))
		for k := range occ {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		def := gateDefGF(g.Type, g.Fanins)
		for _, k := range keys {
			vars := p.remove(k)
			rest := without(vars, id)
			stepBudget(bud, len(def))
			for _, dv := range def {
				p.toggle(unionVars(rest, dv))
			}
		}
		bud.CheckCubes("algebraic", int64(p.len()))
		if p.len() > peak {
			peak = p.len()
		}
	}
	if len(p.terms) != len(expect) {
		return false, peak, fmt.Sprintf("Zhegalkin form has %d monomials, spec wants %d", p.len(), len(expect))
	}
	for k := range p.terms {
		if _, okk := expect[k]; !okk {
			return false, peak, fmt.Sprintf("monomial %s not in the spec form",
				renderZTerm(net, &zterm{vars: p.terms[k], coef: big.NewInt(1)}))
		}
	}
	return true, peak, ""
}

// bddWord checks the network against a word-level BDD model built from
// the spec (column compressors, XOR trees, reduce-table columns) under
// the run's budget: node growth and ITE steps trip the same caps the
// algebraic engine spends. Variables are ordered by interleaving the
// operand words bit by bit — the order under which adder and
// GF-multiplier column BDDs stay linear in the width; word-separated
// order (the PI declaration order) is exponential for carry chains.
func bddWord(net *network.Network, ws *wordgen.Spec, opt WordOptions) (res *WordResult, err error) {
	gerr := budget.Guard(func() {
		perm := interleavePerm(net, ws)
		m := bdd.New(net.NumPIs())
		m.SetBudget(opt.Budget)
		gates := net.GateBDDs(m, perm)
		specRefs := specBDDRefs(m, net, ws, perm)
		res = &WordResult{OK: true, Mode: "bdd", Shards: 1}
		posWord := poWords(ws)
		for pos, po := range net.POs {
			got := gates[po.Gate]
			if got == specRefs[pos] {
				continue
			}
			res.OK = false
			w, b := posWord[pos][0], posWord[pos][1]
			detail := "functions differ"
			if assign, sat := m.AnySat(m.Xor(got, specRefs[pos])); sat {
				// AnySat speaks var levels; translate back to PI positions.
				piAssign := cube.NewBitSet(net.NumPIs())
				for pos := range net.PIs {
					if assign.Has(perm[pos]) {
						piAssign.Set(pos)
					}
				}
				detail = fmt.Sprintf("differs on assignment %s", renderAssign(net, piAssign))
			}
			res.Mismatch = &WordMismatch{Word: ws.Out[w].Name, Bit: b, Pos: pos, Detail: detail}
			return
		}
	})
	if gerr != nil {
		return nil, gerr
	}
	return res, nil
}

// interleavePerm maps PI position -> BDD variable level, interleaving
// the input words LSB first: a0 b0 a1 b1 ...
func interleavePerm(net *network.Network, ws *wordgen.Spec) []int {
	perm := make([]int, net.NumPIs())
	level := 0
	for b := 0; ; b++ {
		progressed := false
		for _, w := range ws.In {
			if b < len(w.Bits) {
				perm[w.Bits[b]] = level
				level++
				progressed = true
			}
		}
		if !progressed {
			return perm
		}
	}
}

// specBDDRefs builds the word-level spec as BDDs, one ref per PO
// position. Integer kinds use a column compressor (full/half adders over
// per-weight ref lists) — the same construction for adders (input vars
// feed the columns) and multipliers (partial products feed them).
func specBDDRefs(m *bdd.Manager, net *network.Network, ws *wordgen.Spec, perm []int) []bdd.Ref {
	refs := make([]bdd.Ref, net.NumPOs())
	piRef := func(pos int) bdd.Ref { return m.Var(perm[pos]) }

	maxBit := 0
	for _, w := range ws.Out {
		if top := w.Shift + w.Width(); top > maxBit {
			maxBit = top
		}
	}
	cols := make([][]bdd.Ref, maxBit+1)
	pushCol := func(k int, r bdd.Ref) {
		for k >= len(cols) {
			cols = append(cols, nil)
		}
		cols[k] = append(cols[k], r)
	}
	sumCols := func() []bdd.Ref {
		// len(cols) is re-read each iteration: carries pushed from the
		// top column grow the slice and are compressed in later rounds.
		for k := 0; k < len(cols); k++ {
			col := cols[k]
			for len(col) > 1 {
				if len(col) == 2 {
					s := m.Xor(col[0], col[1])
					c := m.And(col[0], col[1])
					col = []bdd.Ref{s}
					pushCol(k+1, c)
					continue
				}
				x, y, z := col[0], col[1], col[2]
				s := m.Xor(m.Xor(x, y), z)
				c := m.Or(m.And(x, y), m.And(z, m.Xor(x, y)))
				col = append([]bdd.Ref{s}, col[3:]...)
				pushCol(k+1, c)
			}
			cols[k] = col
		}
		sum := make([]bdd.Ref, len(cols))
		for k, col := range cols {
			if len(col) == 1 {
				sum[k] = col[0]
			} else {
				sum[k] = bdd.Zero
			}
		}
		return sum
	}
	fromSum := func(sum []bdd.Ref) {
		for _, w := range ws.Out {
			for b, pos := range w.Bits {
				bit := w.Shift + b
				if bit < len(sum) {
					refs[pos] = sum[bit]
				} else {
					refs[pos] = bdd.Zero
				}
			}
		}
	}

	switch ws.Kind {
	case wordgen.KindIntAdd:
		for _, w := range ws.In {
			for b, pos := range w.Bits {
				pushCol(w.Shift+b, piRef(pos))
			}
		}
		fromSum(sumCols())
	case wordgen.KindIntMul:
		a, b := ws.In[0], ws.In[1]
		for i, ap := range a.Bits {
			for j, bp := range b.Bits {
				pushCol(i+j, m.And(piRef(ap), piRef(bp)))
			}
		}
		fromSum(sumCols())
	case wordgen.KindXorLinear:
		for pos := range refs {
			r := bdd.Zero
			for _, pi := range ws.Linear[pos] {
				r = m.Xor(r, piRef(pi))
			}
			refs[pos] = r
		}
	case wordgen.KindGFMul:
		a, b := ws.In[0], ws.In[1]
		w := ws.Width
		rt := wordgen.ReduceTable(w, ws.Poly)
		colRefs := make([]bdd.Ref, 2*w-1)
		for k := range colRefs {
			colRefs[k] = bdd.Zero
		}
		for i := 0; i < w; i++ {
			for j := 0; j < w; j++ {
				colRefs[i+j] = m.Xor(colRefs[i+j], m.And(piRef(a.Bits[i]), piRef(b.Bits[j])))
			}
		}
		for _, ow := range ws.Out {
			for t, pos := range ow.Bits {
				r := bdd.Zero
				for k := range colRefs {
					if rt[k].Bit(ow.Shift+t) == 1 {
						r = m.Xor(r, colRefs[k])
					}
				}
				refs[pos] = r
			}
		}
	}
	return refs
}

// renderAssign formats a counterexample assignment with PI names.
func renderAssign(net *network.Network, assign cube.BitSet) string {
	s := ""
	for i, id := range net.PIs {
		v := "0"
		if assign.Has(i) {
			v = "1"
		}
		name := net.Gates[id].Name
		if name == "" {
			name = fmt.Sprintf("x%d", i)
		}
		if i > 0 {
			s += " "
		}
		s += name + "=" + v
	}
	return s
}

// ModeSim's random operand vectors: how many, and the seed of their
// generator.
const (
	simWordVectors = 256
	simWordSeed    = 0
)

// simWord cross-checks the network against the word-level golden model
// on random operand vectors. It is a smoke test, not a proof: used when
// explicitly requested, and by the differential tests as the
// independent oracle the algebraic verdicts are compared against.
func simWord(net *network.Network, ws *wordgen.Spec) (*WordResult, error) {
	rng := rand.New(rand.NewSource(simWordSeed))
	res := &WordResult{OK: true, Mode: "sim", Shards: 1}
	for v := 0; v < simWordVectors; v++ {
		in := make([]*big.Int, len(ws.In))
		for i, w := range ws.In {
			val := new(big.Int)
			for b := 0; b < w.Width(); b++ {
				if rng.Intn(2) == 1 {
					val.SetBit(val, b, 1)
				}
			}
			in[i] = val
		}
		want, err := ws.Golden(in)
		if err != nil {
			return nil, err
		}
		assign := cube.NewBitSet(net.NumPIs())
		for i, w := range ws.In {
			for b, pos := range w.Bits {
				if in[i].Bit(b) == 1 {
					assign.Set(pos)
				}
			}
		}
		outBits := net.Eval(assign)
		for wi, w := range ws.Out {
			for b, pos := range w.Bits {
				got := outBits[pos]
				if got != (want[wi].Bit(b) == 1) {
					res.OK = false
					res.Mismatch = &WordMismatch{
						Word: w.Name, Bit: b, Pos: pos,
						Detail: fmt.Sprintf("inputs %v: circuit %v, golden %v", in, got, !got),
					}
					return res, nil
				}
			}
		}
	}
	return res, nil
}
