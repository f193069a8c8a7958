package main

import (
	"fmt"
	"math"
)

// metricDef is one metric the benchmark prints. moves names the end-to-end
// metric and workload a change in this metric should move, and flat where it
// should stay as it is; both are documentation, checked by no code.
type metricDef struct {
	name, unit, better string
	moves, flat        string
}

// endToEnd are the metrics a user of the index sees, measured with tracing
// off and printed by every run with --trace 0.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower",
		moves: "index construction from a collection already in memory (median of the run's builds)"},
	{name: "query_p50_ms", unit: "ms", better: "lower",
		moves: "per-query latency, call to return (serve-mix: send on Serve to response)"},
	{name: "query_p99_ms", unit: "ms", better: "lower",
		moves: "as query_p50_ms; every run holds at least ten samples beyond it"},
	{name: "qps", unit: "1/s", better: "higher",
		moves: "queries completed per second of the measured phase"},
	{name: "heap_bytes_per_series", unit: "B", better: "lower",
		moves: "live heap after set-up and a forced GC minus the live heap before the build, per indexed series"},
	{name: "success_rate", unit: "fraction", better: "higher",
		moves: "1 - (failed + refused + wrong answers) / operations attempted, over queries and appends"},
}

// perLayer are the metrics of single layers, printed by every run with
// --trace 1. A layer a workload does not exercise reads 0 there, which is
// itself the measurement that it stayed out of the way.
var perLayer = []metricDef{
	{name: "env.gomaxprocs", unit: "count", better: "higher", moves: "baseline record: the parallelism the run had"},
	{name: "vector.simd", unit: "bool", better: "higher", moves: "baseline record: 1 when vector.Impl() is a SIMD path, 0 for scalar"},

	{name: "core.summarize_s", unit: "s", better: "lower", moves: "setup_s on mem-exact"},
	{name: "core.tree_build_s", unit: "s", better: "lower", moves: "setup_s on mem-exact"},

	{name: "vector.ed_ns", unit: "ns", better: "lower", moves: "query_p50_ms and qps on mem-exact", flat: "ingest.append_* in the ingest phase"},
	{name: "vector.ea_ns", unit: "ns", better: "lower", moves: "query_p50_ms and qps on mem-exact", flat: "ingest.append_* in the ingest phase"},
	{name: "vector.mindist_ns_per_bound", unit: "ns", better: "lower", moves: "query_p50_ms and qps on mem-exact", flat: "ingest.append_* in the ingest phase"},
	{name: "vector.bytes_per_ed", unit: "B", better: "lower", moves: "computed bytes one distance call reads", flat: "all workloads"},

	{name: "series.lbkeogh_ns", unit: "ns", better: "lower", moves: "query_p99_ms on serve-mix", flat: "mem-exact"},
	{name: "series.dtw_ns", unit: "ns", better: "lower", moves: "query_p99_ms on serve-mix", flat: "mem-exact"},

	{name: "isax.table_fill_ns", unit: "ns", better: "lower", moves: "query_p50_ms on mem-exact", flat: "ingest.append_* in the ingest phase"},
	{name: "isax.bound_ns_per_entry", unit: "ns", better: "lower", moves: "query_p50_ms on mem-exact", flat: "ingest.append_* in the ingest phase"},

	{name: "messi.search_ms_p50", unit: "ms", better: "lower", moves: "query_p50_ms, qps on mem-exact", flat: "ingest.append_* in the ingest phase"},
	{name: "messi.search_ms_p99", unit: "ms", better: "lower", moves: "query_p99_ms on mem-exact", flat: "ingest.append_* in the ingest phase"},
	{name: "messi.entries_checked_per_query", unit: "count", better: "lower", moves: "query_p50_ms on mem-exact", flat: "ingest.append_* in the ingest phase"},
	{name: "messi.raw_distances_per_query", unit: "count", better: "lower", moves: "query_p50_ms on mem-exact", flat: "ingest.append_* in the ingest phase"},
	{name: "messi.leaves_popped_per_query", unit: "count", better: "lower", moves: "query_p50_ms on mem-exact", flat: "ingest.append_* in the ingest phase"},
	{name: "messi.leaves_inserted_per_query", unit: "count", better: "lower", moves: "query_p50_ms on mem-exact", flat: "ingest.append_* in the ingest phase"},
	{name: "messi.pruned_fraction", unit: "fraction", better: "higher", moves: "query_p50_ms on mem-exact (1 - entries checked / series observed)", flat: "ingest.append_* in the ingest phase"},
	{name: "messi.raw_per_entry", unit: "ratio", better: "lower", moves: "query_p50_ms on mem-exact (raw distances / entries checked)", flat: "ingest.append_* in the ingest phase"},

	{name: "messi.merges", unit: "count", better: "lower", moves: "ingest.append_p99_us in the ingest phase of mem-exact's traced run (no end-to-end workload: see CHANGES.md)", flat: "serve-mix"},
	{name: "messi.merge_s", unit: "s", better: "lower", moves: "ingest.append_p99_us in the ingest phase of mem-exact's traced run (no end-to-end workload: see CHANGES.md)", flat: "serve-mix"},
	{name: "messi.pending_mean", unit: "count", better: "lower", moves: "reader latency in the ingest phase of mem-exact's traced run", flat: "serve-mix"},
	{name: "messi.tombstoned", unit: "count", better: "lower", moves: "reader latency in the ingest phase of mem-exact's traced run", flat: "serve-mix"},
	{name: "ingest.append_p50_us", unit: "us", better: "lower", moves: "append latency from its scheduled due time, in the ingest phase of mem-exact's traced run", flat: "serve-mix (no appends)"},
	{name: "ingest.append_p99_us", unit: "us", better: "lower", moves: "append latency from its scheduled due time, in the ingest phase of mem-exact's traced run", flat: "serve-mix (no appends)"},

	{name: "shard.search_ms_p50", unit: "ms", better: "lower", moves: "qps and query_p50_ms on serve-mix", flat: "mem-exact"},
	{name: "shard.raw_distances_per_query", unit: "count", better: "lower", moves: "qps and query_p50_ms on serve-mix", flat: "mem-exact"},
	{name: "shard.raw_over_single", unit: "ratio", better: "lower", moves: "qps on serve-mix (raw distances against a 1-shard index of the same data)", flat: "mem-exact"},
	{name: "shard.slowest_shard_ms", unit: "ms", better: "lower", moves: "query_p50_ms on serve-mix", flat: "mem-exact"},
	{name: "shard.skew", unit: "ratio", better: "lower", moves: "query_p50_ms on serve-mix (slowest shard / mean shard)", flat: "mem-exact"},

	{name: "engine.tasks_per_query", unit: "count", better: "lower", moves: "query_p99_ms on serve-mix", flat: "mem-exact"},
	{name: "engine.admit_waits_per_query", unit: "count", better: "lower", moves: "query_p99_ms on serve-mix", flat: "mem-exact"},
	{name: "engine.admit_wait_ms_per_query", unit: "ms", better: "lower", moves: "query_p99_ms on serve-mix", flat: "mem-exact"},
	{name: "engine.submit_fallbacks", unit: "count", better: "lower", moves: "query_p99_ms on serve-mix", flat: "mem-exact"},
	{name: "engine.peak_in_flight", unit: "count", better: "higher", moves: "query_p99_ms on serve-mix", flat: "mem-exact"},

	{name: "index.search_ms_p50", unit: "ms", better: "lower", moves: "query_p50_ms on every workload (the public index call alone)"},
	{name: "serve.overhead_ms_p50", unit: "ms", better: "lower", moves: "query_p50_ms on serve-mix (Serve latency minus the direct call)", flat: "mem-exact"},

	{name: "storage.cache_hit_rate", unit: "fraction", better: "higher", moves: "no end-to-end metric yet: counted on an all-cold twin replayed in serve-mix's traced run"},
	{name: "storage.device_reads_per_query", unit: "count", better: "lower", moves: "no end-to-end metric yet: counted on an all-cold twin replayed in serve-mix's traced run"},
	{name: "storage.device_bytes_per_query", unit: "B", better: "lower", moves: "no end-to-end metric yet: counted on an all-cold twin replayed in serve-mix's traced run"},
	{name: "storage.bytes_per_raw_distance", unit: "B", better: "lower", moves: "no end-to-end metric yet: counted on an all-cold twin replayed in serve-mix's traced run"},
	{name: "storage.evictions_per_query", unit: "count", better: "lower", moves: "no end-to-end metric yet: counted on an all-cold twin replayed in serve-mix's traced run"},

	{name: "ucr.scan_ms_p50", unit: "ms", better: "lower", moves: "none: the paper's serial-scan baseline"},
	{name: "ucr.index_speedup", unit: "ratio", better: "higher", moves: "none: scan p50 / index p50, the paper's index-versus-scan comparison"},

	{name: "driver.lag_ms", unit: "ms", better: "lower", moves: "none: p99 lateness of the ingest phase's open-loop writer (health)"},
	{name: "trace.overhead_frac", unit: "fraction", better: "lower", moves: "none: traced minus untraced query p50, over untraced (health)"},
}

// report collects one run's outcome and metrics.
type report struct {
	attempted, failed int
	wrong             int
	values            map[string]float64
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// count adds a load phase's operations to the run's totals.
func (r *report) count(l loopResult) {
	r.attempted += l.attempted
	r.failed += l.failed
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// output renders the report against the metric set of the run's mode.
// Every end-to-end metric must have been measured; a per-layer metric the
// workload does not reach reads 0. A NaN or infinite value is refused.
func (r *report) output(defs []metricDef, fillZero bool) (output, error) {
	out := output{
		Correct:   r.wrong == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed + r.wrong,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !fillZero {
			return out, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return out, nil
}
