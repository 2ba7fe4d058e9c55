// Package factor implements the algebraic factorization of FPRM forms from
// Section 3 of the paper: the cube method (Method 1), the OFDD-driven
// method (Method 2), and the rewrite rules
//
//	Reduction:     (a) A ⊕ AB = A·B̄
//	               (b) AB ⊕ AC ⊕ ABC = A(B+C)   (as  X ⊕ Y ⊕ XY = X+Y)
//	               (c) AB ⊕ B̄ = A + B̄
//	Factorization: (d) AB ⊕ AC ⊕ … = A(B ⊕ C ⊕ …)
//	               (e) AB + AC + … = A(B + C + …)
//
// Factored results are expression DAGs over FPRM literals; ApplyPolarity
// maps them into PI space before they are emitted into a gate network.
package factor

import (
	"fmt"
	"sort"
	"strings"
)

// Op enumerates expression node kinds.
type Op int

// Expression operators.
const (
	OpConst0 Op = iota
	OpConst1
	OpLit // a literal, in FPRM space until ApplyPolarity maps it to PI space
	OpNot
	OpAnd
	OpOr
	OpXor
)

// Expr is a node of an expression DAG. Exprs are immutable after
// construction; shared subexpressions are shared pointers.
type Expr struct {
	Op   Op
	Var  int // for OpLit
	Kids []*Expr
	key  string
}

var (
	constZero = &Expr{Op: OpConst0, key: "0"}
	constOne  = &Expr{Op: OpConst1, key: "1"}
)

// Zero returns the constant-0 expression.
func Zero() *Expr { return constZero }

// One returns the constant-1 expression.
func One() *Expr { return constOne }

// Lit returns the expression for literal v.
func Lit(v int) *Expr {
	return &Expr{Op: OpLit, Var: v, key: fmt.Sprintf("v%d", v)}
}

// Key returns a canonical string identifying the expression structurally
// (commutative operators have sorted children).
func (e *Expr) Key() string { return e.key }

func mkKey(op string, kids []*Expr) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = k.key
	}
	return op + "(" + strings.Join(parts, ",") + ")"
}

func sortKids(kids []*Expr) {
	sort.Slice(kids, func(i, j int) bool { return kids[i].key < kids[j].key })
}

// Not returns the complement of e, simplifying double negation and
// constants.
func Not(e *Expr) *Expr {
	switch e.Op {
	case OpConst0:
		return constOne
	case OpConst1:
		return constZero
	case OpNot:
		return e.Kids[0]
	}
	return &Expr{Op: OpNot, Kids: []*Expr{e}, key: "!" + e.key}
}

// AndN returns the conjunction of the operands, flattening nested ANDs,
// removing duplicates and identity elements, and detecting x·x̄ = 0.
func AndN(kids ...*Expr) *Expr { return nary(OpAnd, kids) }

// OrN returns the disjunction of the operands with flattening, duplicate
// removal and x + x̄ = 1 detection.
func OrN(kids ...*Expr) *Expr { return nary(OpOr, kids) }

// nary builds op (OpAnd or OpOr) over kids. The operator fixes its unit
// (1 for AND, 0 for OR), which is dropped, and its absorbing constant,
// which an operand or a complementary pair x, x̄ makes the result.
func nary(op Op, kids []*Expr) *Expr {
	unit, absorb, sym := constOne, constZero, "&"
	if op == OpOr {
		unit, absorb, sym = constZero, constOne, "|"
	}
	var flat []*Expr
	seen := map[string]bool{}
	var add func(*Expr) bool // returns false when the result is absorb
	add = func(k *Expr) bool {
		switch k.Op {
		case absorb.Op:
			return false
		case unit.Op:
			return true
		case op:
			for _, kk := range k.Kids {
				if !add(kk) {
					return false
				}
			}
			return true
		}
		if seen[k.key] {
			return true
		}
		if k.Op == OpNot && seen[k.Kids[0].key] || seen["!"+k.key] {
			return false // x, x̄
		}
		seen[k.key] = true
		flat = append(flat, k)
		return true
	}
	for _, k := range kids {
		if !add(k) {
			return absorb
		}
	}
	switch len(flat) {
	case 0:
		return unit
	case 1:
		return flat[0]
	}
	sortKids(flat)
	return &Expr{Op: op, Kids: flat, key: mkKey(sym, flat)}
}

// XorN returns the exclusive-or of the operands, flattening nested XORs,
// cancelling duplicate operands pairwise and folding constants. A trailing
// complement is represented by wrapping in Not.
func XorN(kids ...*Expr) *Expr {
	invert := false
	count := map[string]int{}
	repr := map[string]*Expr{}
	var add func(*Expr)
	add = func(k *Expr) {
		switch k.Op {
		case OpConst0:
			return
		case OpConst1:
			invert = !invert
			return
		case OpNot:
			invert = !invert
			add(k.Kids[0])
			return
		case OpXor:
			for _, kk := range k.Kids {
				add(kk)
			}
			return
		}
		count[k.key]++
		repr[k.key] = k
	}
	for _, k := range kids {
		add(k)
	}
	var flat []*Expr
	for key, c := range count {
		if c%2 == 1 {
			flat = append(flat, repr[key])
		}
	}
	var out *Expr
	switch len(flat) {
	case 0:
		out = constZero
	case 1:
		out = flat[0]
	default:
		sortKids(flat)
		out = &Expr{Op: OpXor, Kids: flat, key: mkKey("^", flat)}
	}
	if invert {
		out = Not(out)
	}
	return out
}

// Literals returns the number of literal occurrences in the expression
// read as a tree (shared DAG nodes are counted at each use, matching the
// literal count of the flattened factored form).
func (e *Expr) Literals() int {
	if e.Op == OpLit {
		return 1
	}
	n := 0
	for _, k := range e.Kids {
		n += k.Literals()
	}
	return n
}

// Eval evaluates the expression on literal values (lits[v] is the value of
// literal v).
func (e *Expr) Eval(lits []bool) bool {
	switch e.Op {
	case OpConst0:
		return false
	case OpConst1:
		return true
	case OpLit:
		return lits[e.Var]
	case OpNot:
		return !e.Kids[0].Eval(lits)
	case OpAnd:
		for _, k := range e.Kids {
			if !k.Eval(lits) {
				return false
			}
		}
		return true
	case OpOr:
		for _, k := range e.Kids {
			if k.Eval(lits) {
				return true
			}
		}
		return false
	case OpXor:
		v := false
		for _, k := range e.Kids {
			if k.Eval(lits) {
				v = !v
			}
		}
		return v
	}
	// Programmer invariant: Op is a closed enum fully covered above; a new
	// Op value without an Eval case is a bug in this package.
	panic("factor: bad op")
}

// String renders the expression with x<i> literals.
func (e *Expr) String() string {
	switch e.Op {
	case OpConst0:
		return "0"
	case OpConst1:
		return "1"
	case OpLit:
		return fmt.Sprintf("x%d", e.Var)
	case OpNot:
		k := e.Kids[0]
		if k.Op == OpAnd || k.Op == OpOr || k.Op == OpXor {
			return "!(" + k.String() + ")"
		}
		return "!" + k.String()
	}
	var op string
	switch e.Op {
	case OpAnd:
		op = "*"
	case OpOr:
		op = " + "
	case OpXor:
		op = " ^ "
	}
	parts := make([]string, len(e.Kids))
	for i, k := range e.Kids {
		s := k.String()
		if k.Op == OpAnd && e.Op != OpXor || k.Op == OpOr || k.Op == OpXor {
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, op)
}
