// Package power estimates switching power the way the SIS
// `power_estimate` command does by default: a zero-delay model under
// temporally independent, uniformly distributed primary inputs. Each
// signal's static probability p is computed exactly from its BDD; its
// switching activity is 2·p·(1−p) (the probability of a transition
// between two independent consecutive vectors), and the dissipation is
// the activity weighted by the capacitive load, taken proportional to the
// signal's fanout. The result is in normalized units (0.5·C·V² ≡ 1 per
// unit load); only ratios between two implementations are meaningful,
// which is all the paper's improve%power column uses.
package power

import (
	"repro/internal/bdd"
	"repro/internal/network"
	"repro/internal/techmap"
)

// Report carries the estimate and its breakdown.
type Report struct {
	Total      float64 // Σ activity × load over all signals
	Signals    int     // signals contributing
	MaxNodeBDD int     // BDD manager size after the run (cost indicator)
}

// EstimateNetwork estimates the switching power of a gate network. Every
// gate output (and every PI) is a signal; load = number of reading gates
// plus one per primary output driven.
func EstimateNetwork(net *network.Network) Report {
	m := bdd.New(net.NumPIs())
	funcs := net.GateBDDs(m, nil)
	load := make([]int, len(net.Gates))
	for _, id := range net.TopoOrder() {
		for _, f := range net.Gates[id].Fanins {
			load[f]++
		}
	}
	for _, po := range net.POs {
		load[po.Gate]++
	}
	var rep Report
	for _, id := range net.TopoOrder() {
		if load[id] == 0 {
			continue
		}
		g := &net.Gates[id]
		if g.Type == network.Buf {
			continue // transparent
		}
		p := m.Density(funcs[id])
		act := 2 * p * (1 - p)
		rep.Total += act * float64(load[id])
		rep.Signals++
	}
	rep.MaxNodeBDD = m.Size()
	return rep
}

// EstimateMapped estimates the switching power of a mapped netlist: the
// signals are the cell outputs and primary inputs of the subject graph;
// load = number of reading cells plus driven POs.
func EstimateMapped(res *techmap.Result) Report {
	subj := res.Subject
	m := bdd.New(len(subj.PIs))
	funcs := subjectBDDs(subj, m)
	// Indexed by subject node and summed in node order, so the float
	// total is the same on every call.
	load := make([]int, len(subj.Nodes))
	for _, c := range res.Cells {
		for _, in := range c.Inputs {
			load[in]++
		}
	}
	for _, po := range subj.POs {
		if po.Node >= 0 {
			load[po.Node]++
		}
	}
	var rep Report
	for node, l := range load {
		if l == 0 {
			continue
		}
		p := m.Density(funcs[node])
		act := 2 * p * (1 - p)
		rep.Total += act * float64(l)
		rep.Signals++
	}
	rep.MaxNodeBDD = m.Size()
	return rep
}

func subjectBDDs(subj *techmap.Subject, m *bdd.Manager) []bdd.Ref {
	val := make([]bdd.Ref, len(subj.Nodes))
	piIdx := 0
	for i, nd := range subj.Nodes {
		switch {
		case nd.IsPI:
			val[i] = m.Var(piIdx)
			piIdx++
		case nd.Inv:
			val[i] = m.Not(val[nd.A])
		default:
			val[i] = m.Not(m.And(val[nd.A], val[nd.B]))
		}
	}
	return val
}
