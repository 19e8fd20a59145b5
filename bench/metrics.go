package main

// metricDef is one per-layer metric of BENCHMARK.json: its name is
// "<layer>.<what>", the layer being the internal/ package measured.
type metricDef struct {
	name, unit string
	// exact marks a count that must repeat exactly between operations of
	// one run and between runs of one commit and seed.
	exact bool
}

// perLayer lists the per-layer metrics the traced run reports, in
// BENCHMARK.json's order. README.md says which end-to-end metric each
// should move, on which workload.
var perLayer = []metricDef{
	{"p4.parse_check_s", "s", false},
	{"p4.source_lines", "count", true},
	{"rules.parse_s", "s", false},
	{"rules.entries", "count", true},
	{"cfg.build_s", "s", false},
	{"cfg.nodes", "count", true},
	{"cfg.possible_paths_log10", "log10", false},
	{"summary.summarize_s", "s", false},
	{"summary.paths_explored", "count", true},
	{"summary.smt_checks", "count", true},
	{"summary.possible_paths_log10_after", "log10", false},
	{"sym.explore_s", "s", false},
	{"sym.paths_explored", "count", true},
	{"sym.paths_pruned", "count", true},
	{"sym.templates", "count", true},
	{"sym.ns_per_path", "ns", false},
	{"sym.mallocs_per_path", "count", false},
	{"sym.alloc_bytes_per_path", "B", false},
	{"sym.explore_par2_s", "s", false},
	{"sym.par2_speedup", "ratio", false},
	{"smt.checks", "count", true},
	{"smt.busy_s", "s", false},
	{"smt.ns_per_check", "ns", false},
	{"smt.unsat_share", "ratio", true},
	{"smt.cache_hits", "count", true},
	{"journal.checkpoint_gen_s", "s", false},
	{"journal.resume_gen_s", "s", false},
	{"journal.open_load_s", "s", false},
	{"journal.records", "count", true},
	{"journal.file_mb", "MB", false},
	{"journal.hits", "count", true},
	{"journal.ns_per_record_loaded", "ns", false},
	{"rulediff.diff_s", "s", false},
	{"rulediff.invalid_tags", "count", true},
	{"regress.rebase_s", "s", false},
	{"regress.baseline_replay_s", "s", false},
	{"regress.incremental_gen_s", "s", false},
	{"regress.retained", "count", true},
	{"regress.invalidated", "count", true},
	{"regress.reuse_share", "ratio", true},
	{"store.cold_gen_s", "s", false},
	{"store.warm_gen_s", "s", false},
	{"store.snapshot_scan_s", "s", false},
	{"store.records", "count", true},
	{"store.file_mb", "MB", false},
	{"store.commits", "count", true},
	{"store.warm_overhead_s", "s", false},
	{"driver.suite_s", "s", false},
	{"driver.verdicts_per_s", "1/s", false},
	{"driver.ns_per_verdict", "ns", false},
	{"driver.concretize_s", "s", false},
	{"driver.lockstep_suite_s", "s", false},
	{"driver.retransmissions", "count", true},
	{"driver.other_s", "s", false},
	{"switchsim.compile_s", "s", false},
	{"switchsim.inject_s", "s", false},
	{"switchsim.ns_per_packet", "ns", false},
	{"packet.parse_s", "s", false},
	{"packet.marshal_s", "s", false},
	{"packet.ns_per_parse", "ns", false},
	{"proc.cpu_s_per_op", "s", false},
	{"proc.alloc_mb_per_op", "MB", false},
	{"proc.mallocs_per_op", "count", false},
	{"proc.gc_pause_ms_per_op", "ms", false},
	{"proc.heap_peak_mb", "MB", false},
	{"trace.overhead_share", "ratio", false},
	{"trace.attributed_share", "ratio", false},
}

// exactCounts is the set of perLayer names marked exact.
var exactCounts = func() map[string]bool {
	m := map[string]bool{}
	for _, d := range perLayer {
		if d.exact {
			m[d.name] = true
		}
	}
	return m
}()
