package main

// metricDef names one metric, its unit and the direction that counts as
// better. The two tables below are the benchmark's vocabulary: BENCHMARK.json
// lists exactly these names, and every later performance claim uses them.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the bounded metrics a user of the simulator sees. The sixth,
// failed_share, prints beside them by that name but is not in this table: it
// must be 0, and BENCHMARK.json takes no end-to-end metric that is ever 0, so
// the result line carries it as its failed and attempted counts.
var endToEnd = []metricDef{
	{"wall_s_per_sim_s", "s/s", lower},
	{"cpu_s_per_sim_s", "s/s", lower},
	{"setup_s", "s", lower},
	{"peak_rss_mb", "MB", lower},
	{"mallocs_k", "k", lower},
}

// perLayer are taken from outside each layer: a span around a call into its
// public API or a public counter read after the run. A metric that does not
// apply to a workload reads 0 there.
var perLayer = []metricDef{
	// orch
	{"orch.plan_s", "s", lower},
	{"orch.run_s", "s", lower},
	{"orch.groups", "count", lower},
	{"orch.spec_demoted_groups", "count", lower},
	{"orch.ckpt_s", "s", lower},
	{"orch.ckpt_overhead_s", "s", lower},
	{"orch.load_s", "s", lower},
	{"orch.resume_s", "s", lower},
	{"orch.modelgraph_s", "s", lower},
	{"orch.seq_ref_run_s", "s", lower},
	{"orch.par_over_seq", "ratio", lower},
	// link
	{"link.tx_sync", "count", lower},
	{"link.tx_data", "count", lower},
	{"link.rx_sync", "count", lower},
	{"link.rx_data", "count", lower},
	{"link.wait_s", "s", lower},
	{"link.proc_s", "s", lower},
	{"link.wait_share", "ratio", lower},
	{"link.sync_per_event", "ratio", lower},
	{"link.peak_depth", "count", lower},
	{"link.sync_cost_ns", "ns", lower},
	{"link.spec_snapshots", "count", lower},
	{"link.spec_rollbacks", "count", lower},
	{"link.spec_leaps", "count", higher},
	{"link.spec_replayed", "count", lower},
	{"link.spec_wasted_s", "s", lower},
	{"link.spec_commit_ratio", "ratio", higher},
	// sim
	{"sim.events", "count", lower},
	{"sim.ns_per_event", "ns", lower},
	{"sim.sched_floor_ns", "ns", lower},
	{"sim.sched_share", "ratio", lower},
	// netsim / topogen / workload
	{"topogen.gen_s", "s", lower},
	{"netsim.build_s", "s", lower},
	{"netsim.materialize_s", "s", lower},
	{"workload.install_s", "s", lower},
	{"netsim.switch_rx_pkts", "count", higher},
	{"netsim.pkts_per_s", "1/s", higher},
	{"netsim.flowcache_hit_share", "ratio", higher},
	{"netsim.drops", "count", lower},
	{"netsim.route_entries_max", "count", lower},
	{"netsim.route_bytes_per_host", "B", lower},
	{"workload.flows_started", "count", higher},
	{"workload.flows_completed", "count", higher},
	{"workload.bytes_sent", "B", higher},
	{"workload.fct_p50_us", "us", lower},
	{"workload.fct_p99_us", "us", lower},
	// flowsim
	{"flowsim.install_s", "s", lower},
	{"flowsim.events", "count", lower},
	{"flowsim.active_flows", "count", higher},
	{"flowsim.proj_pkt_events", "count", higher},
	{"flowsim.unroutable", "count", lower},
	// hostsim / nicsim / tcpstack / pci
	{"hostsim.rx_pkts", "count", higher},
	{"hostsim.tx_pkts", "count", higher},
	{"nicsim.rx_frames", "count", higher},
	{"nicsim.tx_frames", "count", higher},
	{"tcpstack.delivered_bytes", "B", higher},
	{"tcpstack.retransmits", "count", lower},
	{"tcpstack.timeouts", "count", lower},
	{"hostsim.proto_variant_run_s", "s", lower},
	{"hostsim.detail_share", "ratio", lower},
	// memsim
	{"memsim.blocks", "count", higher},
	{"memsim.txns", "count", higher},
	// proto
	{"proto.frame_allocs", "count", lower},
	{"proto.frame_reuses", "count", higher},
	{"proto.frame_reuse_share", "ratio", higher},
	{"proto.frames_live_end", "count", lower},
	// snap
	{"snap.ckpt_bytes", "B", lower},
	{"snap.state_encode_s", "s", lower},
	// profiler / tracing
	{"profiler.samples", "count", higher},
	{"profiler.analyze_s", "s", lower},
	{"profiler.wtpg_s", "s", lower},
	{"profiler.bottleneck_wait_share", "ratio", lower},
	{"trace.overhead_share", "ratio", lower},
	// decomp
	{"decomp.pred_wall_s_per_sim_s", "s/s", lower},
	{"decomp.pred_over_measured", "ratio", higher},
	// runtime / machine
	{"runtime.gc_cycles", "count", lower},
	{"runtime.gc_pause_ms", "ms", lower},
	{"runtime.total_alloc_mb", "MB", lower},
	{"runtime.heap_end_mb", "MB", lower},
	{"machine.nproc", "count", higher},
	{"machine.ref_spin_ms", "ms", lower},
}
