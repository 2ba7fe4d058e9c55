package core

import (
	"encoding/json"
	"io"

	"repro/internal/obs"
	"repro/internal/redund"
)

// StatsSchema identifies the RunStats JSON layout; bump on any
// incompatible field change so downstream consumers (the benchmark
// regression gate, dashboards) can reject reports they do not
// understand.
const StatsSchema = "rmstats/v1"

// RunStats is the end-to-end observability report of one synthesis run,
// shaped for JSON serialization (rmsyn -stats-json, the rmbench
// artifact). Every field except the ones StripVolatile clears is
// deterministic for a given circuit and configuration, at any worker
// count.
type RunStats struct {
	Schema  string `json:"schema"`
	Circuit string `json:"circuit"`
	PIs     int    `json:"pis"`
	POs     int    `json:"pos"`
	Workers int    `json:"workers"`

	// Cost of the synthesized network (see network.CollectStats).
	Gates2     int `json:"gates2"`
	Literals   int `json:"literals"`
	XORs       int `json:"xors"`
	GatesTotal int `json:"gates_total"`

	CubeCounts   []int64       `json:"cube_counts"`
	Fallback     bool          `json:"fallback"`
	Degradations []Degradation `json:"degradations"`
	Redund       redund.Result `json:"redund"`
	Budget       BudgetStat    `json:"budget"`
	Obs          *obs.Stats    `json:"obs,omitempty"`

	// Basis is the requested synthesis basis ("xor", "sop", "auto",
	// "race"); BasisChoices records the arbiter's per-cone routing.
	// Both are deterministic at any worker count and survive
	// StripVolatile.
	Basis        string        `json:"basis,omitempty"`
	BasisChoices []BasisChoice `json:"basis_choices,omitempty"`

	Phases    []PhaseTime  `json:"phases"`
	Outputs   []OutputSpan `json:"outputs"`
	ElapsedNS int64        `json:"elapsed_ns"`
}

// BudgetStat reports the run budget's activity.
type BudgetStat struct {
	Steps int64 `json:"steps"`
	Polls int64 `json:"polls"`
}

// RunStats assembles the serializable report for this result. circuit
// names the run (the network name is used when empty). The report owns
// copies of the result's slices, so StripVolatile leaves r intact.
func (r *Result) RunStats(circuit string) *RunStats {
	if circuit == "" && r.Network != nil {
		circuit = r.Network.Name
	}
	rs := &RunStats{
		Schema:       StatsSchema,
		Circuit:      circuit,
		Workers:      r.Workers,
		Gates2:       r.Stats.Gates2,
		Literals:     r.Stats.Lits,
		XORs:         r.Stats.XORs,
		GatesTotal:   r.Stats.Total,
		CubeCounts:   r.CubeCounts,
		Fallback:     r.Fallback,
		Degradations: append([]Degradation(nil), r.Degradations...),
		Redund:       r.Redund,
		Budget:       BudgetStat{Steps: r.BudgetSteps, Polls: r.BudgetPolls},
		Obs:          r.ObsStats,
		Basis:        r.Basis,
		BasisChoices: append([]BasisChoice(nil), r.BasisChoices...),
		Phases:       append([]PhaseTime(nil), r.PhaseTimes...),
		Outputs:      append([]OutputSpan(nil), r.OutputTimes...),
		ElapsedNS:    r.Elapsed.Nanoseconds(),
	}
	if r.Network != nil {
		rs.PIs = r.Network.NumPIs()
		rs.POs = len(r.Network.POs)
	}
	return rs
}

// StripVolatile clears the fields that legitimately differ between runs
// of the same circuit and configuration — wall-clock durations and
// worker scheduling (worker ids, worker count). What remains is
// bit-identical across runs at any -j, which the determinism tests and
// the regression gate rely on.
func (rs *RunStats) StripVolatile() *RunStats {
	rs.Workers = 0
	rs.ElapsedNS = 0
	for i := range rs.Phases {
		rs.Phases[i].Elapsed = 0
	}
	for i := range rs.Outputs {
		rs.Outputs[i].Worker = 0
		rs.Outputs[i].Elapsed = 0
	}
	return rs
}

// WriteJSON writes the report as indented JSON with a trailing newline.
func (rs *RunStats) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
