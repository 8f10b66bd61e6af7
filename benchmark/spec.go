package main

// The benchmark's fixed vocabulary: workloads, end-to-end metrics with their
// regression bounds, and the per-layer table. BENCHMARK.json at the repo root
// restates these names for the driver; TestManifestMatchesSpec keeps the two
// in step. Later changes are judged against these names, so they do not move.

// metricDef names one reported number.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen
}

// endToEnd are the numbers that gate a change. Every workload reports every
// one of them (the driver's contract), so the list holds only what all four
// can measure, what is never zero on an unfaulted run, and what ten runs on
// the reference box repeat to within 0.25, the widest bound the contract
// allows. ISSUE 11 lists six more here; they are measured all the same (the
// live latencies by traced runs, which have the paced phase they come from)
// and head perLayer:
//
//   - error_frac and stale_frac are zero where nothing is wrong;
//   - the four latencies do not hold 0.25. The box is a two-core VM on a
//     shared host: the p99s sit on hypervisor stalls (ten-run spread
//     0.3–0.8 of the median) and the medians follow the host's load (0.07 in
//     a quiet quarter of an hour, 0.37 in a busy one, medians a third apart
//     between the two). ISSUE 11's own rule is that a metric that cannot
//     hold 0.25 is demoted, not kept with a loose bound.
//
// ISSUE 11 also hoped for bounds of 0.10. Member CPU per operation itself
// moves 0.05–0.21 over ten runs here (neighbours on the same cores), so 0.10
// would reject a commit against itself. baseline/SPREAD.md has the numbers.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
}

// perLayer metrics have no bound: they explain a movement, they do not gate
// it. A workload a metric does not apply to reports it as 0 (the README's
// table says which apply where).
var perLayer = []metricDef{
	// What a user sees beyond the three above (see endToEnd): latency from
	// the paced phase, due time to callback — on sim-ycsb-a virtual-time
	// latency, exact order statistics that repeat for a seed — and the two
	// fractions.
	{"read_p50_us", "us", "lower", 0},
	{"read_p99_us", "us", "lower", 0},
	{"write_p50_us", "us", "lower", 0},
	{"write_p99_us", "us", "lower", 0},
	{"error_frac", "ratio", "lower", 0},
	{"stale_frac", "ratio", "lower", 0},
	// Correctness counts and whole-run trace figures.
	{"check.quorum_regressions", "count", "lower", 0},
	{"check.key_mismatches", "count", "lower", 0},
	{"unattributed_us", "us", "lower", 0},
	{"trace.overhead_us", "us", "lower", 0},
	{"trace.self_sum_ratio", "ratio", "higher", 0},
	// ycsb / generator.
	{"ycsb.gen_ns_per_op", "ns", "lower", 0},
	{"loadgen.cpu_us_per_op", "us", "lower", 0},
	{"loadgen.late_frac", "ratio", "lower", 0},
	{"loadgen.late_p99_us", "us", "lower", 0},
	// client.
	{"client.issue_us_p50", "us", "lower", 0},
	{"client.complete_us_p50", "us", "lower", 0},
	{"client.retries_per_kop", "1/kop", "lower", 0},
	{"client.hedges_per_kop", "1/kop", "lower", 0},
	{"client.pending_max", "count", "lower", 0},
	// transport.
	{"transport.reply_us_p50", "us", "lower", 0},
	{"transport.reply_us_p99", "us", "lower", 0},
	{"transport.hop_us_mean", "us", "lower", 0},
	{"transport.ping_us_p50", "us", "lower", 0},
	{"transport.frames_per_op", "1/op", "lower", 0},
	{"transport.bytes_per_op", "B/op", "lower", 0},
	{"transport.frames_per_batch", "ratio", "higher", 0},
	{"transport.frames_dropped", "count", "lower", 0},
	{"transport.peer_queue_bytes_max", "B", "lower", 0},
	// wire.
	{"wire.encode_ns", "ns", "lower", 0},
	{"wire.decode_shared_ns", "ns", "lower", 0},
	{"wire.req_bytes", "B", "lower", 0},
	{"wire.resp_bytes", "B", "lower", 0},
	// cluster.
	{"cluster.coord_read_us_mean", "us", "lower", 0},
	{"cluster.coord_write_us_mean", "us", "lower", 0},
	{"cluster.replica_ops_per_op", "1/op", "lower", 0},
	{"cluster.level_share_one", "ratio", "higher", 0},
	{"cluster.level_share_two", "ratio", "higher", 0},
	{"cluster.level_share_quorum", "ratio", "higher", 0},
	{"cluster.level_share_all", "ratio", "higher", 0},
	{"cluster.level_share_session", "ratio", "higher", 0},
	{"cluster.read_repairs_per_kop", "1/kop", "lower", 0},
	{"cluster.timeouts_per_kop", "1/kop", "lower", 0},
	{"cluster.unavailable_per_kop", "1/kop", "lower", 0},
	{"cluster.overloaded_per_kop", "1/kop", "lower", 0},
	{"cluster.hints_queued_per_kop", "1/kop", "lower", 0},
	// storage.
	{"storage.apply_us_p50", "us", "lower", 0},
	{"storage.get_us_p50", "us", "lower", 0},
	{"storage.engine_ops_per_op", "1/op", "lower", 0},
	{"storage.appends_per_fsync", "ratio", "higher", 0},
	{"storage.fsyncs_per_s", "1/s", "lower", 0},
	{"storage.disk_bytes_per_user_byte", "ratio", "lower", 0},
	{"storage.dead_bytes_frac", "ratio", "lower", 0},
	{"storage.compactions", "count", "lower", 0},
	{"storage.keydir_bytes_per_key", "B", "lower", 0},
	{"storage.recover_s", "s", "lower", 0},
	{"storage.recovered_rows", "count", "higher", 0},
	// core.
	{"core.observe_us_p50", "us", "lower", 0},
	{"core.observe_gap_ms_p99", "ms", "lower", 0},
	{"core.levelsfor_ns", "ns", "lower", 0},
	{"core.level_changes", "count", "lower", 0},
	{"core.level_stable_frac", "ratio", "higher", 0},
	{"core.estimate_hot", "ratio", "lower", 0},
	{"core.estimate_cold", "ratio", "lower", 0},
	{"core.stale_frac_hot", "ratio", "lower", 0},
	{"core.stale_frac_cold", "ratio", "lower", 0},
	{"core.probe_samples", "count", "higher", 0},
	// sim / simnet.
	{"sim.events_per_op", "1/op", "lower", 0},
	{"sim.wall_ns_per_event", "ns", "lower", 0},
	{"sim.allocs_per_op", "1/op", "lower", 0},
	{"sim.alloc_bytes_per_op", "B/op", "lower", 0},
	{"sim.gc_cycles", "count", "lower", 0},
	{"sim.load_s", "s", "lower", 0},
	{"sim.warmup_s", "s", "lower", 0},
	{"sim.virtual_ops_per_s", "ops/s", "higher", 0},
	{"sim.virtual_read_p99_ms", "ms", "lower", 0},
	{"sim.virtual_write_p99_ms", "ms", "lower", 0},
	{"simnet.messages_per_op", "1/op", "lower", 0},
	{"simnet.dropped", "count", "lower", 0},
	// the box itself (box.go).
	{"box.loopback_rtt_us", "us", "lower", 0},
	{"box.alu_ms", "ms", "lower", 0},
	{"box.chase_ns", "ns", "lower", 0},
	{"box.cpu_busy_min", "ratio", "higher", 0},
	// server processes.
	{"server.cpu_user_frac", "ratio", "higher", 0},
	{"server.ctxsw_per_op", "1/op", "lower", 0},
	{"server.rss_mb_max", "MB", "lower", 0},
}

// workloadDef is one named set of inputs. Why is the one-line reason the
// manifest carries; the README has the long form.
type workloadDef struct {
	Name string
	Why  string
	run  func(*runConfig) (*result, error)
}

var workloads = []workloadDef{
	{"live-read-quorum",
		"small frames, trivial engine: time is client, transport per-frame cost and coordinator fan-out; linearizable, so reads are checked",
		func(rc *runConfig) (*result, error) { return runLive(rc, readQuorumSpec) }},
	{"live-write-durable",
		"1 KiB 50/50 on -data-dir group commit: storage append, fsync batching and pread dominate; closes with a SIGKILL crash check",
		func(rc *runConfig) (*result, error) { return runLive(rc, writeDurableSpec) }},
	{"live-adaptive-hotcold",
		"3 KiB values under the per-group controller and monitor: the only workload where core runs and wire/transport cost is bytes",
		func(rc *runConfig) (*result, error) { return runLive(rc, hotColdSpec) }},
	{"sim-ycsb-a",
		"YCSB-A on the 20-node simulator, Harmony at 0.20: no sockets or disk, time is sim/simnet/state machines; virtual outputs repeat per seed",
		runSim},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
