// Package atpg provides single stuck-at fault analysis for gate networks:
// fault enumeration with gate-local equivalence collapsing, PODEM test
// generation, and 64-way parallel fault simulation.
//
// The paper claims its synthesized networks are irredundant with a
// complete single-stuck-at test set derivable without conventional test
// generation (the OC/SA1 pattern sets); this package measures both claims:
// fault coverage of a given pattern set, and exhaustive PODEM proves
// redundant faults untestable.
package atpg

import (
	"fmt"

	"repro/internal/cube"
	"repro/internal/network"
)

// Fault is a single stuck-at fault. Pin == -1 is the gate output; Pin >= 0
// is the wire feeding fanin position Pin of the gate.
type Fault struct {
	Gate int
	Pin  int
	SA1  bool
}

// String renders the fault.
func (f Fault) String() string {
	v := 0
	if f.SA1 {
		v = 1
	}
	if f.Pin < 0 {
		return fmt.Sprintf("g%d/out s-a-%d", f.Gate, v)
	}
	return fmt.Sprintf("g%d/in%d s-a-%d", f.Gate, f.Pin, v)
}

// Faults enumerates collapsed single stuck-at faults of the PO cone:
// every gate output fault plus those input faults not equivalent to an
// output fault of the same gate (AND input s-a-0 ≡ output s-a-0, OR input
// s-a-1 ≡ output s-a-1, NAND input s-a-0 ≡ output s-a-1, NOR input s-a-1
// ≡ output s-a-0, and inverter/buffer input faults collapse onto the
// output).
func Faults(net *network.Network) []Fault {
	var out []Fault
	for _, id := range net.TopoOrder() {
		g := &net.Gates[id]
		if g.Type == network.PI {
			// PI faults are represented as the output faults of the PI
			// "gate".
			out = append(out, Fault{Gate: id, Pin: -1, SA1: false}, Fault{Gate: id, Pin: -1, SA1: true})
			continue
		}
		if g.Type == network.Const0 || g.Type == network.Const1 {
			continue
		}
		out = append(out, Fault{Gate: id, Pin: -1, SA1: false}, Fault{Gate: id, Pin: -1, SA1: true})
		for pin := range g.Fanins {
			switch g.Type {
			case network.Buf, network.Not:
				// Both input faults equivalent to output faults.
			case network.And:
				out = append(out, Fault{Gate: id, Pin: pin, SA1: true}) // s-a-0 ≡ out s-a-0
			case network.Nand:
				out = append(out, Fault{Gate: id, Pin: pin, SA1: true}) // s-a-0 ≡ out s-a-1
			case network.Or:
				out = append(out, Fault{Gate: id, Pin: pin, SA1: false}) // s-a-1 ≡ out s-a-1
			case network.Nor:
				out = append(out, Fault{Gate: id, Pin: pin, SA1: false}) // s-a-1 ≡ out s-a-0
			default: // XOR/XNOR: no controlling value, keep both
				out = append(out, Fault{Gate: id, Pin: pin, SA1: false}, Fault{Gate: id, Pin: pin, SA1: true})
			}
		}
	}
	return out
}

// FaultSimulate returns, for each fault, whether the pattern set detects
// it (some PO differs between the good and faulty circuit). The good
// circuit is simulated once per 64-pattern block; each fault not yet
// detected then resimulates only the gates downstream of its site.
func FaultSimulate(net *network.Network, faults []Fault, patterns []cube.BitSet) []bool {
	detected := make([]bool, len(faults))
	order := net.TopoOrder()
	faulty := make([]uint64, len(net.Gates))
	cone := make([]int, len(net.Gates)) // cone[g] == walk: g is downstream of the fault site
	walk := 0
	var in []uint64
	goods := net.SimulateBlocks(network.PackPatterns(patterns, len(net.PIs)))
	for b, good := range goods {
		mask := ^uint64(0)
		if rem := len(patterns) - 64*b; rem < 64 {
			mask = 1<<uint(rem) - 1
		}
		for fi, f := range faults {
			if detected[fi] {
				continue
			}
			site := f.Gate
			walk++
			cone[site] = walk
			copy(faulty, good)
			var stuck uint64
			if f.SA1 {
				stuck = ^uint64(0)
			}
			if f.Pin < 0 {
				faulty[site] = stuck
			} else {
				g := &net.Gates[site]
				in = in[:0]
				for pin, fn := range g.Fanins {
					v := good[fn]
					if pin == f.Pin {
						v = stuck
					}
					in = append(in, v)
				}
				faulty[site] = network.EvalGateWord(g.Type, in)
			}
			for _, id := range order {
				g := &net.Gates[id]
				if id == site || !readsCone(g.Fanins, cone, walk) {
					continue
				}
				cone[id] = walk
				in = in[:0]
				for _, fn := range g.Fanins {
					in = append(in, faulty[fn])
				}
				faulty[id] = network.EvalGateWord(g.Type, in)
			}
			for _, po := range net.POs {
				if (good[po.Gate]^faulty[po.Gate])&mask != 0 {
					detected[fi] = true
					break
				}
			}
		}
	}
	return detected
}

// readsCone reports whether any fanin is marked in the current fault
// cone walk.
func readsCone(fanins, cone []int, walk int) bool {
	for _, f := range fanins {
		if cone[f] == walk {
			return true
		}
	}
	return false
}

// Coverage summarizes a fault simulation.
type Coverage struct {
	Total    int
	Detected int
}

// Percent returns the detection percentage.
func (c Coverage) Percent() float64 {
	if c.Total == 0 {
		return 100
	}
	return 100 * float64(c.Detected) / float64(c.Total)
}

// MeasureCoverage fault-simulates the pattern set over the collapsed
// fault list.
func MeasureCoverage(net *network.Network, patterns []cube.BitSet) Coverage {
	faults := Faults(net)
	det := FaultSimulate(net, faults, patterns)
	c := Coverage{Total: len(faults)}
	for _, d := range det {
		if d {
			c.Detected++
		}
	}
	return c
}
