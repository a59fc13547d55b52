package main

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units, directions and bounds (a test keeps the two in step); -compare
// judges with these.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the parent's median a metric may worsen by; 0 for per-layer metrics
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them: a decide-* workload about its child server, train-replay about
// the offline pipeline in this process.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"decide_p50_us", "us", "lower", 0.15},
	{"decide_p99_us", "us", "lower", 0.25},
	{"decides_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_decide", "us", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.25},
	{"train_s", "s", "lower", 0.25},
	{"model_auc", "auc", "higher", 0.25},
}

// perLayer is measured by a traced run. A run reports every name; the ones
// its workload does not exercise read 0 (see the README's table for which
// workload measures which).
var perLayer = []metricDef{
	// serve, client side: spans around the benchmark's calls into serve.Client.
	{name: "serve.client.encode_ns", unit: "ns", better: "lower"},
	{name: "serve.client.flush_ns", unit: "ns", better: "lower"},
	{name: "serve.client.wait_ns", unit: "ns", better: "lower"},
	{name: "serve.client.reap_ns", unit: "ns", better: "lower"},
	{name: "serve.client.turn_self_ns", unit: "ns", better: "lower"},
	{name: "serve.flushes_per_decide", unit: "count", better: "lower"},
	{name: "serve.waits_per_decide", unit: "count", better: "lower"},
	// serve, server side: Client.Stats deltas and /proc over the window.
	{name: "serve.batch_mean", unit: "count", better: "higher"},
	{name: "serve.batch1_share", unit: "share", better: "lower"},
	{name: "serve.decline_share", unit: "share", better: "lower"},
	{name: "serve.sheds", unit: "count", better: "lower"},
	{name: "serve.deadline_sheds", unit: "count", better: "lower"},
	{name: "serve.partial_flushes", unit: "count", better: "lower"},
	{name: "serve.breaker_answers", unit: "count", better: "lower"},
	{name: "serve.write_drops", unit: "count", better: "lower"},
	{name: "serve.conn_drops", unit: "count", better: "lower"},
	{name: "serve.server_user_cpu_share", unit: "share", better: "higher"},
	{name: "serve.gen_cpu_us_per_decide", unit: "us", better: "lower"},
	{name: "serve.start_ms", unit: "ms", better: "lower"},
	{name: "serve.rtt_p999_us", unit: "us", better: "lower"},
	{name: "serve.rtt_max_us", unit: "us", better: "lower"},
	// serve probes (decide-sync).
	{name: "serve.rtt_inmem_p50_us", unit: "us", better: "lower"},
	{name: "serve.rtt_unix_p50_us", unit: "us", better: "lower"},
	{name: "serve.rtt_tcp_p50_us", unit: "us", better: "lower"},
	{name: "serve.rtt_resilient_p50_us", unit: "us", better: "lower"},
	{name: "serve.paced20k_p50_us", unit: "us", better: "lower"},
	{name: "serve.paced20k_p99_us", unit: "us", better: "lower"},
	{name: "serve.paced20k_late_p50_us", unit: "us", better: "lower"},
	{name: "serve.paced20k_shed_share", unit: "share", better: "lower"},
	// feature, nn, core in-process (decide-pipelined).
	{name: "feature.push_ns", unit: "ns", better: "lower"},
	{name: "feature.row_ns", unit: "ns", better: "lower"},
	{name: "feature.extract_ns_io", unit: "ns", better: "lower"},
	{name: "nn.float_b1_ns_row", unit: "ns", better: "lower"},
	{name: "nn.int32_b1_ns_row", unit: "ns", better: "lower"},
	{name: "nn.int8_b1_ns_row", unit: "ns", better: "lower"},
	{name: "nn.float_b32_ns_row", unit: "ns", better: "lower"},
	{name: "nn.int32_b32_ns_row", unit: "ns", better: "lower"},
	{name: "nn.int8_b32_ns_row", unit: "ns", better: "lower"},
	{name: "nn.int32_agree_share", unit: "share", better: "higher"},
	{name: "nn.int8_agree_share", unit: "share", better: "higher"},
	{name: "core.admit_b1_ns_row", unit: "ns", better: "lower"},
	{name: "core.admit_b32_ns_row", unit: "ns", better: "lower"},
	{name: "core.model_bytes", unit: "count", better: "lower"},
	// lifecycle (decide-pipelined).
	{name: "lifecycle.on_completion_ns", unit: "ns", better: "lower"},
	{name: "lifecycle.on_decision_ns", unit: "ns", better: "lower"},
	{name: "lifecycle.tick_s", unit: "s", better: "lower"},
	// offline layers (train-replay).
	{name: "trace.generate_ns_io", unit: "ns", better: "lower"},
	{name: "ssd.submit_ns_io", unit: "ns", better: "lower"},
	{name: "core.label_s", unit: "s", better: "lower"},
	{name: "core.fit_s", unit: "s", better: "lower"},
	{name: "core.model_fnr", unit: "share", better: "lower"},
	{name: "core.model_fpr", unit: "share", better: "lower"},
	{name: "replay.ns_read", unit: "ns", better: "lower"},
	{name: "replay.inferences_per_read", unit: "count", better: "lower"},
	{name: "replay.reroute_share", unit: "share", better: "lower"},
	{name: "replay.base_read_mean_us", unit: "us", better: "lower"},
	{name: "replay.base_read_p99_us", unit: "us", better: "lower"},
	{name: "replay.heimdall_read_mean_us", unit: "us", better: "lower"},
	{name: "replay.heimdall_read_p99_us", unit: "us", better: "lower"},
	// the benchmark itself.
	{name: "bench.trace_overhead_share", unit: "share", better: "lower"},
	{name: "bench.timer_granularity_us", unit: "us", better: "lower"},
}

// workloadDef names one workload and why it is in the benchmark.
type workloadDef struct {
	name string
	why  string
}

// train-replay comes first: its rss_mb is this process's high-water mark,
// which a run of all four workloads must take before the others have grown
// the heap.
var workloads = []workloadDef{
	{"train-replay", "offline train then replay through the same feature/nn/core code one row at a time with no wire: training cost, replay rate and model quality"},
	{"decide-sync", "one decide in flight on one connection: transport, wake-up and codec cost per decision; batching and kernels are bypassed"},
	{"decide-pipelined", "32 decides in flight on each of 2 connections: batches form, so feature rows, the batched engine and coalesced writes carry the load"},
	{"decide-joint", "decide-pipelined with a JointSize 4 model: one inference per 4 decides, group staging and held responses on the same shard path"},
}

// metrics is the value set of one run, keyed by metric name.
type metrics map[string]float64

// fill returns the run's metrics in reporting form: every name of defs, with
// its unit, reading 0 where the run measured nothing.
func (m metrics) fill(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
