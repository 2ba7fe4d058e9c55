package factor

import (
	"math/rand"
	"testing"

	"repro/internal/cube"
	"repro/internal/obs"
)

// Operand lists are decoded from bytes over the eight literals x0..x7.
// The first byte gives the list length (mod 17); every operand is one
// node in prefix order, whose byte b selects by b&7:
//
//	0, 1  literal x((b>>3)&7)
//	2     constant (b>>3)&1
//	3     the complement of the next node
//	4     AND of 1+(b>>3)&7 nodes
//	5     OR of 1+(b>>3)&7 nodes
//	6     XOR of 1+(b>>3)&7 nodes
//	7     an earlier small node again, complemented when (b>>3)&1 is set
//
// Bytes past the end read as 0 (literal x0), so every input decodes.
// Op 7 is what yields duplicate operands and complement pairs. Inner
// nodes are built with the reference constructors, so a list means the
// same thing to the shared code and to its oracle.
const (
	maxFuzzBytes = 256 // longer inputs are cut, bounding the list size
	maxPoolKey   = 32  // op 7 reuses only nodes with keys this short
)

type operandDecoder struct {
	data []byte
	pool []*Expr
}

func (d *operandDecoder) next() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *operandDecoder) node() *Expr {
	b := d.next()
	arg := int(b>>3) & 7
	var e *Expr
	switch b & 7 {
	case 0, 1:
		e = Lit(arg)
	case 2:
		e = Zero()
		if arg&1 == 1 {
			e = One()
		}
	case 3:
		e = Not(d.node())
	case 4, 5, 6:
		kids := make([]*Expr, 1+arg)
		for i := range kids {
			kids[i] = d.node()
		}
		switch b & 7 {
		case 4:
			e = refAndN(kids...)
		case 5:
			e = refOrN(kids...)
		default:
			e = XorN(kids...)
		}
	case 7:
		if len(d.pool) == 0 {
			return Lit(arg)
		}
		e = d.pool[int(b>>4)%len(d.pool)]
		if arg&1 == 1 {
			e = Not(e)
		}
	}
	if len(e.key) <= maxPoolKey {
		d.pool = append(d.pool, e)
	}
	return e
}

// decodeOperands decodes one operand list.
func decodeOperands(data []byte) []*Expr {
	if len(data) > maxFuzzBytes {
		data = data[:maxFuzzBytes]
	}
	d := &operandDecoder{data: data}
	kids := make([]*Expr, d.next()%17)
	for i := range kids {
		kids[i] = d.node()
	}
	return kids
}

// encodeOperands is decodeOperands' inverse for lists of at most 16
// operands over x0..x7. An n-ary node of more than 8 operands is written
// as 7 of them plus a nested node of the same operator holding the rest,
// which the constructors flatten back.
func encodeOperands(kids []*Expr) []byte {
	out := []byte{byte(len(kids))}
	var enc func(e *Expr)
	enc = func(e *Expr) {
		switch e.Op {
		case OpLit:
			out = append(out, byte(e.Var<<3))
		case OpConst0:
			out = append(out, 2)
		case OpConst1:
			out = append(out, 1<<3|2)
		case OpNot:
			out = append(out, 3)
			enc(e.Kids[0])
		default:
			op := map[Op]byte{OpAnd: 4, OpOr: 5, OpXor: 6}[e.Op]
			ks := e.Kids
			for len(ks) > 8 {
				out = append(out, 7<<3|op)
				for _, k := range ks[:7] {
					enc(k)
				}
				ks = ks[7:]
			}
			out = append(out, byte(len(ks)-1)<<3|op)
			for _, k := range ks {
				enc(k)
			}
		}
	}
	for _, k := range kids {
		enc(k)
	}
	return out
}

// checkNormalForm holds the shared constructors and common-factor rules
// to their references on one operand list, and ApplyRules to the
// function of the expression it rewrites.
func checkNormalForm(t *testing.T, kids []*Expr) {
	t.Helper()
	same := func(what string, got, want *Expr) {
		t.Helper()
		if got.Key() != want.Key() {
			t.Fatalf("%s of %s:\n got  %s\n want %s", what, listString(kids), got, want)
		}
	}
	same("AndN", AndN(kids...), refAndN(kids...))
	same("OrN", OrN(kids...), refOrN(kids...))
	same("XorN", XorN(kids...), refBalancedXor(kids))
	var got, want obs.Factor
	same("factorXorKids", factorXorKids(kids, &got), refFactorXorKids(kids, &want))
	same("factorOr", factorOr(kids, &got), refFactorOr(kids, &want))
	if got.Snapshot() != want.Snapshot() {
		t.Fatalf("rule counters of %s: got %+v, want %+v", listString(kids), got.Snapshot(), want.Snapshot())
	}
	lits := make([]bool, 8)
	for _, e := range []*Expr{AndN(kids...), OrN(kids...), XorN(kids...)} {
		r := ApplyRules(e, maxRulePasses, nil)
		for a := 0; a < 1<<8; a++ {
			for v := range lits {
				lits[v] = a>>v&1 == 1
			}
			if r.Eval(lits) != e.Eval(lits) {
				t.Fatalf("ApplyRules(%s) = %s differs at %08b", e, r, a)
			}
		}
	}
}

func listString(kids []*Expr) string {
	s := "["
	for i, k := range kids {
		if i > 0 {
			s += ", "
		}
		s += k.String()
	}
	return s + "]"
}

// seedOperandLists returns the operand lists of the t481 and cube-method
// tests over x0..x7: each cube list as its cube products, and every
// operand list inside its Method 1 factorization with and without the
// rules. t481's 16 variables fall into two 8-variable blocks no cube
// spans; each block is a list of its own, with xv read as x(v mod 8).
func seedOperandLists() [][]*Expr {
	mk := func(cubes ...[]int) *cube.List {
		l := cube.NewList(8)
		for _, vs := range cubes {
			l.Add(cube.New(8, vs...))
		}
		return l
	}
	sources := []*cube.List{
		mk(nil, []int{0}),                                            // 1 ⊕ x0
		mk([]int{0, 1}, []int{0, 2}, []int{1, 2}),                    // carry
		mk([]int{0, 2}, []int{0, 3}, []int{1, 2}, []int{1, 3}),       // pair-XOR divisor
		mk([]int{0, 1}, []int{2, 3}, []int{4, 5}, []int{6, 7}),       // disjoint groups
		mk([]int{0, 1}, []int{0, 2, 3}, []int{1, 2, 3}, []int{4, 5}), // memo
		z4mlList(),
	}
	t481 := t481List()
	for block := 0; block < 2; block++ {
		l := cube.NewList(8)
		for _, c := range t481.Cubes {
			var vs []int
			c.Vars.ForEach(func(v int) { vs = append(vs, v) })
			if vs[0]/8 == block {
				for i := range vs {
					vs[i] %= 8
				}
				l.Add(cube.New(8, vs...))
			}
		}
		sources = append(sources, l)
	}
	var lists [][]*Expr
	seen := map[string]bool{}
	var collect func(e *Expr)
	collect = func(e *Expr) {
		if len(e.Kids) == 0 || seen[e.key] {
			return
		}
		seen[e.key] = true
		if e.Op != OpNot {
			lists = append(lists, e.Kids)
		}
		for _, k := range e.Kids {
			collect(k)
		}
	}
	for _, l := range sources {
		var prods []*Expr
		for _, c := range l.Cubes {
			prods = append(prods, cubeExpr(c))
		}
		lists = append(lists, prods)
		for _, rules := range []bool{false, true} {
			collect(NewContext(Options{ApplyRules: rules}).Factor(l))
		}
	}
	return lists
}

// FuzzFactorNormalForm checks AndN, OrN and XorN, and the rule (d) and
// (e) extractions, against their references key for key on operand
// lists decoded from arbitrary bytes, and that ApplyRules keeps the
// function of the expressions they build.
func FuzzFactorNormalForm(f *testing.F) {
	for _, kids := range seedOperandLists() {
		f.Add(encodeOperands(kids))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkNormalForm(t, decodeOperands(data))
	})
}

// The seed lists round-trip through the encoding.
func TestOperandEncoding(t *testing.T) {
	for i, kids := range seedOperandLists() {
		got := decodeOperands(encodeOperands(kids))
		if len(got) != len(kids) {
			t.Fatalf("list %d: decoded %s, want %s", i, listString(got), listString(kids))
		}
		for j := range kids {
			if got[j].Key() != kids[j].Key() {
				t.Fatalf("list %d: decoded %s, want %s", i, listString(got), listString(kids))
			}
		}
	}
}

// TestSharedRulesMatchReference runs the fuzz check on lists decoded
// from fixed-seed random bytes; the seed lists run as the fuzz target's
// own cases.
func TestSharedRulesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 3000; i++ {
		data := make([]byte, 1+rng.Intn(64))
		rng.Read(data)
		checkNormalForm(t, decodeOperands(data))
	}
}
