package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the library or the service sees.
// Every workload reports every one of them; README.md says what each
// means per workload. They are measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"synth_s", "s"},
	{"synth_geomean_ms", "ms"},
	{"lits", "count"},
	{"map_lits", "count"},
	{"map_gates", "count"},
	{"degraded", "count"},
	{"alloc_mb", "MB"},
	{"req_p50_ms", "ms"},
	{"req_tail_ms", "ms"},
	{"req_per_s", "1/s"},
}

// corePhases are the phase names core records in Result.PhaseTimes.
var corePhases = []string{"spec-bdd", "predict", "fprm", "factor", "emit", "select", "redund", "merge", "cleanup", "verify"}

// selfLayers are the layers whose self time the traced run reports.
var selfLayers = []string{"bench", "wordgen", "network", "sigcache", "client", "core", "sisbase", "verify", "techmap"}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reads 0 on that workload.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, p := range corePhases {
		defs = append(defs, metricDef{"core.phase." + p + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"core.unattributed_s", "s"},
		metricDef{"core.fprm_output_max_s", "s"},
		metricDef{"core.budget_steps", "count"},
		metricDef{"core.alloc_mb", "MB"},
		metricDef{"arbiter.cones", "count"},
		metricDef{"arbiter.hedged", "count"},
		metricDef{"arbiter.sop_arm_runs", "count"},
		metricDef{"arbiter.sop_arm_kept_ratio", "ratio"},
		metricDef{"bdd.op_hit_rate", "ratio"},
		metricDef{"bdd.peak_nodes", "count"},
		metricDef{"ofdd.op_hit_rate", "ratio"},
		metricDef{"ofdd.peak_nodes", "count"},
		metricDef{"factor.rule_applications", "count"},
		metricDef{"factor.divisor_hits", "count"},
		metricDef{"fprm.search_candidates", "count"},
		metricDef{"sisbase.run_s", "s"},
		metricDef{"sisbase.alloc_mb", "MB"},
		metricDef{"sis_ratio", "ratio"},
		metricDef{"verify.equivalent_s", "s"},
		metricDef{"verify.word_s", "s"},
		metricDef{"verify.word_algebraic_points", "count"},
		metricDef{"verify.word_peak_monomials", "count"},
		metricDef{"verify.sim_ms_p50", "ms"},
		metricDef{"techmap.map_s", "s"},
		metricDef{"bench.build_s", "s"},
		metricDef{"wordgen.generate_s", "s"},
		metricDef{"network.read_blif_ms_p50", "ms"},
		metricDef{"sigcache.signature_ms_p50", "ms"},
		metricDef{"server.front_ms_p50", "ms"},
		metricDef{"server.elapsed_tail_ms", "ms"},
		metricDef{"server.hit_ratio", "ratio"},
		metricDef{"server.coalesced", "count"},
		metricDef{"server.shed", "count"},
		metricDef{"server.admission_shrinks", "count"},
		metricDef{"server.extra_bodies", "count"},
		metricDef{"client.hit_p50_ms", "ms"},
		metricDef{"client.miss_p50_ms", "ms"},
		metricDef{"client.miss_tail_ms", "ms"},
		metricDef{"client.retries", "count"},
	)
	for _, l := range selfLayers {
		defs = append(defs, metricDef{"self." + l + "_s", "s"})
	}
	return append(defs, metricDef{"trace.overhead_ratio", "ratio"})
}()

// countKeys are the outputs that must repeat exactly on every pass and
// every run of a workload; a difference is a failure, not noise.
var countKeys = []string{
	"lits", "map_lits", "map_gates", "degraded",
	"core.budget_steps", "arbiter.cones", "arbiter.hedged", "arbiter.sop_arm_runs", "arbiter.sop_arm_kept",
}
