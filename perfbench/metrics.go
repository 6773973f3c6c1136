package main

// metricSpec names one reported metric. BENCHMARK.json lists the same
// names; TestBenchmarkJSONMatchesSpecs keeps the two in step.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run. Each is non-zero on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"job_p50_s", "s", "lower"},
	{"job_tail_s", "s", "lower"},
	{"first_block_p50_s", "s", "lower"},
	{"query_kbp_per_s", "kbp/s", "higher"},
	{"cpu_s_per_job", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics. A layer the workload's path
// does not reach reads 0.
var perLayer = []metricSpec{
	{"genome.read_fasta_s", "s", "lower"},
	{"seed.build_index_s", "s", "lower"},
	{"seed.index_mb", "MB", "lower"},
	{"indexstore.load_s", "s", "lower"},
	{"dsoft.ns_per_query_bp", "ns/bp", "lower"},
	{"dsoft.candidates", "count", "lower"},
	{"align.bsw_ns_per_cell", "ns/cell", "lower"},
	{"align.bsw_cells", "count", "lower"},
	{"align.bsw_pass_frac", "frac", "higher"},
	{"gact.ns_per_cell", "ns/cell", "lower"},
	{"gact.cells", "count", "lower"},
	{"gact.ns_per_cell.homologous", "ns/cell", "lower"},
	{"gact.ns_per_cell.junk", "ns/cell", "lower"},
	{"gact.cells_per_anchor.homologous", "cells", "lower"},
	{"gact.cells_per_anchor.junk", "cells", "lower"},
	{"gact.sampled.homologous", "count", "higher"},
	{"gact.sampled.junk", "count", "higher"},
	{"core.seed_s", "s", "lower"},
	{"core.filter_s", "s", "lower"},
	{"core.extend_s", "s", "lower"},
	{"core.cpu_per_wall", "ratio", "higher"},
	{"core.extended_frac", "frac", "lower"},
	{"core.hsp_per_extended", "ratio", "higher"},
	{"chain.build_s", "s", "lower"},
	{"maf.write_s", "s", "lower"},
	{"maf.bytes", "bytes", "lower"},
	{"server.queue_wait_p50_s", "s", "lower"},
	{"server.run_p50_s", "s", "lower"},
	{"server.overhead_p50_s", "s", "lower"},
	{"cluster.overhead_p50_s", "s", "lower"},
	{"cluster.dispatch_delay_p50_s", "s", "lower"},
	{"cluster.dispatches_per_job", "count", "lower"},
	{"cluster.shard.units", "count", "lower"},
	{"cluster.shard.extended", "count", "lower"},
	{"cluster.shard.frames", "count", "lower"},
	{"cluster.shard.kept", "count", "higher"},
	{"cluster.shard.kept_frac", "frac", "higher"},
	{"cluster.shard.unit_p50_s", "s", "lower"},
	{"cluster.shard.job_p50_s", "s", "lower"},
	{"work.seed_hits", "count", "lower"},
	{"work.candidates", "count", "lower"},
	{"work.filter_cells", "count", "lower"},
	{"work.passed", "count", "lower"},
	{"work.absorbed", "count", "higher"},
	{"work.extension_cells", "count", "lower"},
	{"work.hsps", "count", "higher"},
	{"trace.job_p50_s", "s", "lower"},
	{"trace.untraced_job_p50_s", "s", "lower"},
	{"trace.layer_share", "frac", "higher"},
	{"quality.recall", "frac", "higher"},
	{"quality.fp_bp", "bp", "lower"},
	{"quality.failed_frac", "frac", "lower"},
}
