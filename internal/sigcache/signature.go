// Package sigcache provides the content-addressed result cache of the
// synthesis service (cmd/rmsynd): a canonical specification signature
// built from per-output BDD fingerprints, and a bounded, single-flight
// LRU cache of serialized synthesis responses keyed by it.
//
// # Why function fingerprints, not file bytes
//
// At service scale the dominant workload is repeated submissions of the
// same specifications — the fixed IWLS'91 family, parametric adders and
// multipliers — arriving as textually different files: reordered .names
// blocks, renamed internal signals, comments, regenerated PLA covers.
// Keying on the canonical BDD of every output (the discipline Yu &
// Ciesielski apply to Galois-field verification, where the function —
// not the netlist — is the identity) makes all of those hit the same
// entry. The model name and the PI and PO names and their order are
// part of the signature, because the cached response embeds them; two
// specs that compute the same functions under different names are
// different requests.
//
// # Blowup fallback
//
// Building spec BDDs can blow up (wide multipliers — the failure shape
// the budget package exists for), so Signature runs the BDD build under
// a node cap and falls back to a structural signature of the canonical
// hash-consed netlist when the cap trips. The two schemes are prefixed
// ("f:" vs "s:") so a functional and a structural signature can never
// collide; a structural signature still deduplicates resubmissions of
// the same file and of structurally equal variants.
package sigcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"repro/internal/bdd"
	"repro/internal/budget"
	"repro/internal/network"
)

// DefaultSigNodeCap bounds the BDD build of a functional signature.
// Specs that exceed it get a structural signature instead.
const DefaultSigNodeCap = 100_000

// Signature returns the canonical content address of a specification:
// "f:<hex>" when the per-output BDD fingerprint was computed within
// nodeCap BDD nodes (0 means DefaultSigNodeCap), "s:<hex>" for the
// structural fallback. The spec is not mutated.
func Signature(spec *network.Network, nodeCap int) string {
	if nodeCap <= 0 {
		nodeCap = DefaultSigNodeCap
	}
	if sig, ok := functionalSignature(spec, nodeCap); ok {
		return sig
	}
	return structuralSignature(spec)
}

// functionalSignature hashes the canonical BDD DAG of every output.
// Node IDs are assigned in first-visit DFS order (outputs in PO order,
// low child before high child), which depends only on the functions and
// the variable order — never on construction history — so equal
// functions hash equally no matter what netlist produced them.
func functionalSignature(spec *network.Network, nodeCap int) (string, bool) {
	bm := bdd.New(spec.NumPIs())
	bm.SetBudget(budget.New(nil, budget.Limits{BDDNodes: nodeCap}))
	var outs []bdd.Ref
	if err := budget.Guard(func() { outs = spec.ToBDDs(bm) }); err != nil {
		return "", false
	}
	h := sha256.New()
	hashInterface(h, spec)
	// Canonical renumbering: terminals are 0 and 1, internal nodes get
	// 2, 3, ... in DFS first-visit order.
	ids := map[bdd.Ref]uint32{bdd.Zero: 0, bdd.One: 1}
	next := uint32(2)
	var visit func(f bdd.Ref) uint32
	visit = func(f bdd.Ref) uint32 {
		if id, ok := ids[f]; ok {
			return id
		}
		lo := visit(bm.Lo(f))
		hi := visit(bm.Hi(f))
		id := next
		next++
		ids[f] = id
		writeU32(h, uint32(bm.TopVar(f)), lo, hi)
		return id
	}
	for _, f := range outs {
		writeU32(h, visit(f))
	}
	return "f:" + hex.EncodeToString(h.Sum(nil)), true
}

// structuralSignature hashes the canonical hash-consed rebuild of the
// netlist in topological order with canonical gate renumbering
// (network.Canonical: constants folded, buffers and double negations
// gone, commutative fanins sorted, duplicate structure merged). It
// identifies structurally equal specs — same file, reformatted file,
// same generator output, renamed-but-identical internal signals — not
// functionally equal ones: the best the cache can do once BDDs are out
// of reach.
func structuralSignature(spec *network.Network) string {
	net := spec.Canonical()
	h := sha256.New()
	hashInterface(h, net)
	renum := make(map[int]uint32, len(net.Gates))
	for _, id := range net.TopoOrder() {
		renum[id] = uint32(len(renum))
		g := &net.Gates[id]
		writeU32(h, uint32(g.Type), uint32(len(g.Fanins)))
		for _, f := range g.Fanins {
			writeU32(h, renum[f])
		}
	}
	for _, po := range net.POs {
		writeU32(h, renum[po.Gate])
	}
	return "s:" + hex.EncodeToString(h.Sum(nil))
}

// hashInterface feeds the spec's external interface — the model name,
// and the PI and PO counts, names, and order — into the hash. The cached
// response embeds these names, so they are identity, not noise.
func hashInterface(h hash.Hash, n *network.Network) {
	writeStr(h, n.Name)
	writeU32(h, uint32(n.NumPIs()), uint32(n.NumPOs()))
	for _, pi := range n.PIs {
		writeStr(h, n.Gates[pi].Name)
	}
	for _, po := range n.POs {
		writeStr(h, po.Name)
	}
}

func writeU32(h hash.Hash, vs ...uint32) {
	var b [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(b[:], v)
		h.Write(b[:])
	}
}

func writeStr(h hash.Hash, s string) {
	writeU32(h, uint32(len(s)))
	h.Write([]byte(s))
}
