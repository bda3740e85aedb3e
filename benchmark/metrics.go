package main

// metricDef declares one metric the benchmark prints. BENCHMARK.json at
// the repository root carries the same names, units, directions and
// bounds; the smoke test holds the two lists to each other.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before the change counts as a regression.
	// Per-layer metrics have none.
	Bound float64
}

// setupFloorS is the absolute allowance on setup_s: set-up times of a few
// hundred milliseconds cannot hold a 25 % bound against scheduler noise.
const setupFloorS = 0.25

// endToEnd lists the metrics a user of the system would see, the same
// five on every workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "epochs_per_s", Unit: "epochs/s", Better: "higher", Bound: 0.10},
	{Name: "run_ms_geomean", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "tail_ratio_p90", Unit: "x", Better: "lower", Bound: 0.10},
	{Name: "alloc_kb_per_epoch", Unit: "KiB/epoch", Better: "lower", Bound: 0.05},
}

// perLayer lists the metrics of single layers; the prefix before the first
// dot is the module the number belongs to. Which workloads print which
// metric is decided by the workload's probe list (workloads.go) and by the
// transport it runs over (layers.go).
var perLayer = []metricDef{
	// Workload-boundary counts, summed over whole-run timelines.
	{Name: "core.msgs_per_epoch", Unit: "msgs/epoch", Better: "lower"},
	{Name: "core.data_kb_per_epoch", Unit: "KiB/epoch", Better: "lower"},
	{Name: "core.diffs_per_epoch", Unit: "count/epoch", Better: "lower"},
	{Name: "core.remote_misses_per_epoch", Unit: "count/epoch", Better: "lower"},
	{Name: "core.segvs_per_epoch", Unit: "count/epoch", Better: "lower"},
	{Name: "core.mprotects_per_epoch", Unit: "count/epoch", Better: "lower"},
	{Name: "core.retransmits_per_epoch", Unit: "count/epoch", Better: "lower"},
	{Name: "core.sim_time_us_per_epoch", Unit: "us/epoch", Better: "lower"},
	{Name: "stats.app_frac", Unit: "frac", Better: "higher"},
	{Name: "stats.os_frac", Unit: "frac", Better: "lower"},
	{Name: "stats.sigio_frac", Unit: "frac", Better: "lower"},
	{Name: "stats.wait_frac", Unit: "frac", Better: "lower"},
	{Name: "core.host_us_per_msg", Unit: "us/msg", Better: "lower"},
	{Name: "core.epoch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.epoch_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "wire.frames_per_epoch", Unit: "frames/epoch", Better: "lower"},
	{Name: "wire.frame_kb_per_epoch", Unit: "KiB/epoch", Better: "lower"},
	{Name: "transport.send_us_mean", Unit: "us", Better: "lower"},
	{Name: "transport.send_us_p99", Unit: "us", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "runtime.mallocs_per_epoch", Unit: "count/epoch", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},

	// sim: the discrete-event and realtime kernels alone.
	{Name: "sim.pingpong_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.advance8_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.advance128_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.rt_pingpong_ns", Unit: "ns", Better: "lower"},

	// vm: twins and diffs on one cache-resident 8 KiB page.
	{Name: "vm.makediff_sparse_ns", Unit: "ns", Better: "lower"},
	{Name: "vm.makediff_dense_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "vm.applydiff_dense_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "vm.twin_ns", Unit: "ns", Better: "lower"},
	{Name: "vm.diff_encode_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "vm.diff_decode_mbps", Unit: "MB/s", Better: "higher"},

	// wire: the frame codec on three frame shapes and on captured traffic.
	{Name: "wire.encode_ctl_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ctl_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_flush_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_flush_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_page_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_page_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.replay_decode_frames_per_s", Unit: "frames/s", Better: "higher"},
	{Name: "wire.replay_decode_mbps", Unit: "MB/s", Better: "higher"},

	// transport: one backend with no DSM above it.
	{Name: "transport.rtt_small_us_p50", Unit: "us", Better: "lower"},
	{Name: "transport.rtt_small_us_p99", Unit: "us", Better: "lower"},
	{Name: "transport.rtt_page_us_p50", Unit: "us", Better: "lower"},
	{Name: "transport.rtt_page_us_p99", Unit: "us", Better: "lower"},
	{Name: "transport.stream_frames_per_s", Unit: "frames/s", Better: "higher"},
	{Name: "transport.stream_lost", Unit: "frames", Better: "lower"},
	{Name: "transport.open_close_us", Unit: "us", Better: "lower"},

	// core: DSM primitives on four nodes, and the checked accessors.
	{Name: "core.barrier_us", Unit: "us", Better: "lower"},
	{Name: "core.barrier_msgs", Unit: "msgs/op", Better: "lower"},
	{Name: "core.lock_us", Unit: "us", Better: "lower"},
	{Name: "core.lock_msgs", Unit: "msgs/op", Better: "lower"},
	{Name: "core.flag_us", Unit: "us", Better: "lower"},
	{Name: "core.flag_msgs", Unit: "msgs/op", Better: "lower"},
	{Name: "core.pagefetch_us", Unit: "us", Better: "lower"},
	{Name: "core.pagefetch_msgs", Unit: "msgs/op", Better: "lower"},
	{Name: "core.difffetch_us", Unit: "us", Better: "lower"},
	{Name: "core.get_ns", Unit: "ns", Better: "lower"},
	{Name: "core.set_ns", Unit: "ns", Better: "lower"},
	{Name: "core.matrix_at_ns", Unit: "ns", Better: "lower"},
	{Name: "core.writefault_ns", Unit: "ns", Better: "lower"},

	// apps, kvload, check.
	{Name: "apps.seq_ms_geomean", Unit: "ms", Better: "lower"},
	{Name: "apps.par_over_seq_x", Unit: "x", Better: "lower"},
	{Name: "kvload.next_zipf_ns", Unit: "ns", Better: "lower"},
	{Name: "kvload.next_uniform_ns", Unit: "ns", Better: "lower"},
	{Name: "kvload.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "check.oracle_overhead_x", Unit: "x", Better: "lower"},
}

// metricByName finds a declared metric in either list.
func metricByName(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
