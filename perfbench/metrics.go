package main

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
// Every one is defined, and never 0, on every workload.
var endToEnd = []string{
	"wall_s", "setup_s", "cells_per_s", "sim_cycles_per_s", "sim_cycles", "peak_rss_mb",
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order. A
// metric of a layer that a workload does not reach reads 0 there (for
// example simd.* on paper-kernels, the StatsReport counters on
// sweep-service); NOTES.md lists which workload each one belongs to.
var perLayer = []string{
	"kernels.build_ms", "vet.check_ms", "core.launch_ms", "core.run_ms", "kernels.verify_ms",
	"core.host_ns_per_inst", "core.host_ns_per_cycle", "sim_inst_per_s", "barrier_cyc", "ttfr_ms",
	"simd.normalize_ms", "simd.cache_hit_ratio", "simd.stream_gap_max_ms", "warm_sweep_s",
	"harness.cell_ms.p50", "harness.cell_ms.p90", "harness.pool_busy_frac",
	"core.fastpath_gain", "cpu.translate_gain",
	"cpu.host_share", "mem.host_share", "interconnect.host_share", "filter.host_share",
	"core.host_share", "vet.host_share", "harness.host_share", "simd.host_share", "runtime.host_share",
	"runtime.alloc_mb", "runtime.gc_count", "trace.overhead_ms",
	"cpu.ipc", "cpu.fence_stall_cycles", "cpu.sc_failures", "cpu.branch_mispredicts", "cpu.translate_hit_ratio",
	"mem.l1d_miss_ratio", "mem.l1d_mshr_full_retries", "mem.l2_hits", "mem.l2_invalidations", "mem.l3_misses",
	"interconnect.req_busy_frac", "interconnect.max_req_queue",
	"filter.fills_parked", "filter.fills_released", "filter.lock_grants", "filter.lock_serviced_in_hold",
}

func metricNames(trace bool) []string {
	if trace {
		return perLayer
	}
	return endToEnd
}
