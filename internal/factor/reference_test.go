package factor

import "repro/internal/obs"

// The constructors and common-factor rules as they were written before
// AND and OR shared one n-ary builder, rules (d) and (e) shared one
// factor pick, and the cube method stopped building a balanced XOR tree
// that XorN flattens again. They are the oracle the fuzz and table tests
// hold the shared code to, key for key.

// refAndN is the separate AND constructor.
func refAndN(kids ...*Expr) *Expr {
	var flat []*Expr
	seen := map[string]bool{}
	var add func(*Expr) bool // returns false when result is constant 0
	add = func(k *Expr) bool {
		switch k.Op {
		case OpConst0:
			return false
		case OpConst1:
			return true
		case OpAnd:
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
			return false // x · x̄
		}
		seen[k.key] = true
		flat = append(flat, k)
		return true
	}
	for _, k := range kids {
		if !add(k) {
			return constZero
		}
	}
	switch len(flat) {
	case 0:
		return constOne
	case 1:
		return flat[0]
	}
	sortKids(flat)
	return &Expr{Op: OpAnd, Kids: flat, key: mkKey("&", flat)}
}

// refOrN is the separate OR constructor.
func refOrN(kids ...*Expr) *Expr {
	var flat []*Expr
	seen := map[string]bool{}
	var add func(*Expr) bool // returns false when result is constant 1
	add = func(k *Expr) bool {
		switch k.Op {
		case OpConst1:
			return false
		case OpConst0:
			return true
		case OpOr:
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
			return false
		}
		seen[k.key] = true
		flat = append(flat, k)
		return true
	}
	for _, k := range kids {
		if !add(k) {
			return constOne
		}
	}
	switch len(flat) {
	case 0:
		return constZero
	case 1:
		return flat[0]
	}
	sortKids(flat)
	return &Expr{Op: OpOr, Kids: flat, key: mkKey("|", flat)}
}

// refBalancedXor joins expressions with a balanced binary tree of XorN
// calls.
func refBalancedXor(exprs []*Expr) *Expr {
	// Filter constants first: 1 toggles an inversion, 0 disappears.
	invert := false
	var live []*Expr
	for _, e := range exprs {
		switch e.Op {
		case OpConst0:
		case OpConst1:
			invert = !invert
		default:
			live = append(live, e)
		}
	}
	if len(live) == 0 {
		if invert {
			return One()
		}
		return Zero()
	}
	for len(live) > 1 {
		var next []*Expr
		for i := 0; i+1 < len(live); i += 2 {
			next = append(next, XorN(live[i], live[i+1]))
		}
		if len(live)%2 == 1 {
			next = append(next, live[len(live)-1])
		}
		live = next
	}
	if invert {
		return Not(live[0])
	}
	return live[0]
}

// refRemoveFactors is removeFactors over refAndN.
func refRemoveFactors(b, a []*Expr) *Expr {
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
	return refAndN(rest...)
}

func refContainsKey(fs []*Expr, key string) bool {
	for _, f := range fs {
		if f.key == key {
			return true
		}
	}
	return false
}

// refFactorXorKids is rule (d) with its own factor count and tie-break.
func refFactorXorKids(kids []*Expr, fo *obs.Factor) *Expr {
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
	kids = x.Kids
	count := map[string]int{}
	repr := map[string]*Expr{}
	for _, k := range kids {
		for _, f := range andFactors(k) {
			count[f.key]++
			repr[f.key] = f
		}
	}
	bestKey, bestC := "", 1
	for key, c := range count {
		if c > bestC || (c == bestC && bestKey != "" && key < bestKey) {
			bestKey, bestC = key, c
		}
	}
	var out *Expr
	if bestKey == "" || bestC < 2 {
		out = x
	} else {
		fo.RuleD()
		f := repr[bestKey]
		var with, without []*Expr
		for _, k := range kids {
			fs := andFactors(k)
			if refContainsKey(fs, bestKey) {
				with = append(with, refRemoveFactors(fs, []*Expr{f}))
			} else {
				without = append(without, k)
			}
		}
		grouped := refAndN(f, refFactorXorKids(with, fo))
		if len(without) == 0 {
			out = grouped
		} else {
			out = XorN(grouped, refFactorXorKids(without, fo))
		}
	}
	if neg {
		out = Not(out)
	}
	return out
}

// refFactorOr is rule (e) with its own factor count and tie-break.
func refFactorOr(kids []*Expr, fo *obs.Factor) *Expr {
	o := refOrN(kids...)
	if o.Op != OpOr {
		return o
	}
	kids = o.Kids
	// Count factor keys across operands.
	count := map[string]int{}
	repr := map[string]*Expr{}
	for _, k := range kids {
		for _, f := range andFactors(k) {
			count[f.key]++
			repr[f.key] = f
		}
	}
	bestKey, bestC := "", 1
	for key, c := range count {
		if c > bestC || (c == bestC && bestKey != "" && key < bestKey) {
			bestKey, bestC = key, c
		}
	}
	if bestKey == "" || bestC < 2 {
		return o
	}
	fo.RuleE()
	f := repr[bestKey]
	var with, without []*Expr
	for _, k := range kids {
		fs := andFactors(k)
		if refContainsKey(fs, bestKey) {
			with = append(with, refRemoveFactors(fs, []*Expr{f}))
		} else {
			without = append(without, k)
		}
	}
	grouped := refAndN(f, refFactorOr(with, fo))
	if len(without) == 0 {
		return grouped
	}
	rest := refFactorOr(without, fo)
	return refOrN(grouped, rest)
}
