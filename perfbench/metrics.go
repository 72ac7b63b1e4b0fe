package main

// metricDef names one reported metric. BENCHMARK.json lists the same names
// and units; the package test keeps the two in step.
type metricDef struct{ name, unit string }

// End-to-end metrics, reported by every workload with --trace 0. What each
// means per workload is in README.md; in short:
//
//	throughput_per_s  trials/s (mc-*), stream-rounds/s (stream-design),
//	                  closed-loop stream-rounds per CPU-second of router
//	                  and shard (fleet-steady)
//	latency_p50_us    median time of the workload's unit of work: a facade
//	                  call (mc-*), a window-completing PushRound
//	                  (stream-design), the router's and shard's CPU time
//	                  for a 512-round batch under back-pressure
//	                  (fleet-steady)
//	latency_p90_us    90th percentile of the same
const (
	mSetup      = "setup_s"
	mThroughput = "throughput_per_s"
	mLatP50     = "latency_p50_us"
	mLatTail    = "latency_p90_us"
	mPeakRSS    = "peak_rss_mb"
)

var endToEnd = []metricDef{
	{mSetup, "s"},
	{mThroughput, "1/s"},
	{mLatP50, "us"},
	{mLatTail, "us"},
	{mPeakRSS, "MB"},
}

// Per-layer metrics, reported by every workload with --trace 1. Layers are
// the repository's module names.
var perLayer = []metricDef{
	{"noise.sample_ns_per_trial", "ns"},
	{"noise.defects_per_trial", "count"},
	{"core.triage_ns_per_trial", "ns"},
	{"core.triage_resolved_frac", "frac"},
	{"core.peel_ns_per_call", "ns"},
	{"core.peel_resolved_frac", "frac"},
	{"core.uf_ns_per_call", "ns"},
	{"core.uf_calls_per_trial", "count"},
	{"core.uf_defects_per_call", "count"},
	{"montecarlo.check_ns_per_trial", "ns"},
	{"montecarlo.unattributed_frac", "frac"},
	{"microarch.model_ns_mean", "ns"},
	{"microarch.model_ns_p999", "ns"},
	{"lattice.graph_build_ms", "ms"},
	{"stream.new_decoder_ms", "ms"},
	{"stream.ingest_ns_per_round", "ns"},
	{"stream.window_ns_p50", "ns"},
	{"stream.window_ns_p99", "ns"},
	{"stream.dispatch_ns_per_tick", "ns"},
	{"stream.parallel_efficiency", "frac"},
	{"stream.w0_window_frac", "frac"},
	{"stream.corrections_per_round", "count"},
	{"fleet.router_ns_per_round", "ns"},
	{"fleet.wire_tx_bytes_per_round", "B"},
	{"fleet.wire_rx_bytes_per_round", "B"},
	{"fleet.shard_busy_frac", "frac"},
	{"fleet.router_busy_frac", "frac"},
	{"fleet.backlog_rounds_max", "count"},
	{"fleet.dial_s", "s"},
	{"fleet.inproc_window_ns", "ns"},
	{"fleet.ladder_sustained_per_s", "1/s"},
	{"fleet.open_loop_p50_us", "us"},
	{"fleet.open_loop_p99_us", "us"},
	{"compress.frame_encode_ns", "ns"},
	{"compress.frame_decode_ns", "ns"},
	{"compress.frame_bytes", "B"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"loadgen.lag_p99_us", "us"},
	{"loadgen.gen_s", "s"},
	{"loadgen.latency_samples", "count"},
	{"trace.overhead_frac", "frac"},
	{"trace.closure_gap_frac", "frac"},
}

func metricUnit(name string) (string, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit, true
			}
		}
	}
	return "", false
}
