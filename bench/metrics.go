package main

import (
	"math"
	"sort"
)

// metricDef declares one metric the driver prints. BENCHMARK.json at the
// repository root lists the same names, units and bounds; the smoke test
// fails when the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen (0 for per-layer metrics, which have none).
	Bound float64
	// Span names the harness span whose median self time is the value of
	// a per-layer time metric; Scale converts its seconds to Unit.
	Span  string
	Scale float64
	// Exact marks a count that must repeat exactly between two runs of the
	// same code and seed on a single-client workload.
	Exact bool
}

// endToEnd are the metrics a user of the library or of doppiobench sees,
// measured with tracing off. Every workload reports every one. Each bound is
// at least three times the widest run-to-run spread measured on any workload
// (README.md holds the record), and at least the issue's floor.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.12},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	toUS = 1e6
	toMS = 1e3
	toNS = 1e9
)

// perLayer are the metrics of single layers, from the traced run. A time
// metric with a Span is the median self time of that span; a workload that
// records no such span reports 0, so a zero also says "this workload does
// not reach the layer from the harness".
var perLayer = []metricDef{
	// Run information measured on the traced invocation's untraced phase.
	{Name: "host_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "op_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace_overhead_frac", Unit: "ratio", Better: "lower"},

	{Name: "sql.parse_us", Unit: "us", Better: "lower", Span: "sql.parse", Scale: toUS},
	{Name: "plan.cache_hit_ratio", Unit: "ratio", Better: "higher", Exact: true},

	{Name: "core.estimate_ms", Unit: "ms", Better: "lower", Span: "core.estimate", Scale: toMS},
	{Name: "core.exec_ms.q1", Unit: "ms", Better: "lower", Span: "core.exec.q1", Scale: toMS},
	{Name: "core.exec_ms.q2", Unit: "ms", Better: "lower", Span: "core.exec.q2", Scale: toMS},
	{Name: "core.exec_ms.q3", Unit: "ms", Better: "lower", Span: "core.exec.q3", Scale: toMS},
	{Name: "core.exec_ms.q4", Unit: "ms", Better: "lower", Span: "core.exec.q4", Scale: toMS},
	{Name: "core.exec_ms.qh", Unit: "ms", Better: "lower", Span: "core.exec.qh", Scale: toMS},
	{Name: "core.glue_ms", Unit: "ms", Better: "lower"},
	{Name: "core.config_cache_hit_ratio", Unit: "ratio", Better: "higher", Exact: true},

	{Name: "token.compile_us", Unit: "us", Better: "lower", Span: "token.compile", Scale: toUS},
	{Name: "config.encode_us", Unit: "us", Better: "lower", Span: "config.encode", Scale: toUS},

	{Name: "shmem.alloc_us", Unit: "us", Better: "lower", Span: "shmem.alloc", Scale: toUS},
	{Name: "shmem.unfreed_result_bytes_per_op", Unit: "B", Better: "lower", Exact: true},
	{Name: "shmem.live_bytes_end", Unit: "B", Better: "lower"},

	{Name: "hal.submit_ms", Unit: "ms", Better: "lower", Span: "hal.submit", Scale: toMS},
	{Name: "hal.await_ms", Unit: "ms", Better: "lower", Span: "hal.await", Scale: toMS},
	{Name: "hal.jobs", Unit: "count", Better: "lower", Exact: true},
	{Name: "hal.dispatch_groups", Unit: "count", Better: "lower", Exact: true},
	{Name: "hal.retries", Unit: "count", Better: "lower", Exact: true},

	{Name: "engine.execute_ms", Unit: "ms", Better: "lower", Span: "engine.execute", Scale: toMS},
	{Name: "pu.ns_per_byte.s2", Unit: "ns/B", Better: "lower"},
	{Name: "pu.ns_per_byte.s7", Unit: "ns/B", Better: "lower"},
	{Name: "pu.ns_per_byte.s15", Unit: "ns/B", Better: "lower"},
	{Name: "pu.cycles", Unit: "count", Better: "lower", Exact: true},

	{Name: "memmodel.simulate_ms", Unit: "ms", Better: "lower", Span: "memmodel.simulate", Scale: toMS},
	{Name: "memmodel.host_ns_per_grant", Unit: "ns", Better: "lower"},
	{Name: "qpi.grants", Unit: "count", Better: "lower", Exact: true},
	{Name: "qpi.bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "qpi.switch_events", Unit: "count", Better: "lower", Exact: true},

	{Name: "softregex.backtracker_ns_per_row.q2", Unit: "ns", Better: "lower"},
	{Name: "softregex.backtracker_ns_per_row.q3", Unit: "ns", Better: "lower"},
	{Name: "softregex.backtracker_ns_per_row.q4", Unit: "ns", Better: "lower"},
	{Name: "softregex.thompson_ns_per_row.q2", Unit: "ns", Better: "lower"},
	{Name: "softregex.dfa_ns_per_row.q2", Unit: "ns", Better: "lower"},
	{Name: "softregex.allocs_per_row", Unit: "count", Better: "lower"},
	{Name: "softregex.steps_per_row.q2", Unit: "count", Better: "lower", Exact: true},
	{Name: "softregex.steps_per_row.q3", Unit: "count", Better: "lower", Exact: true},
	{Name: "softregex.steps_per_row.q4", Unit: "count", Better: "lower", Exact: true},

	{Name: "strmatch.like_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "invindex.search_us", Unit: "us", Better: "lower", Span: "invindex.search", Scale: toUS},
	{Name: "invindex.rebuild_ms", Unit: "ms", Better: "lower", Span: "invindex.rebuild", Scale: toMS},
	{Name: "mdb.regexp_ms.q2", Unit: "ms", Better: "lower", Span: "mdb.regexp.q2", Scale: toMS},
	{Name: "mdb.regexp_ms.q3", Unit: "ms", Better: "lower", Span: "mdb.regexp.q3", Scale: toMS},
	{Name: "mdb.regexp_ms.q4", Unit: "ms", Better: "lower", Span: "mdb.regexp.q4", Scale: toMS},
	{Name: "mdb.like_ms", Unit: "ms", Better: "lower", Span: "mdb.like", Scale: toMS},
	{Name: "mdb.ilike_ms", Unit: "ms", Better: "lower", Span: "mdb.ilike", Scale: toMS},
	{Name: "mdb.contains_us", Unit: "us", Better: "lower", Span: "mdb.contains", Scale: toUS},

	{Name: "obs.observe_us", Unit: "us", Better: "lower"},
	{Name: "explain.observe_us", Unit: "us", Better: "lower"},
	{Name: "flightrec.record_ns", Unit: "ns", Better: "lower"},

	{Name: "experiments.table1_ms", Unit: "ms", Better: "lower", Span: "experiments.table1", Scale: toMS},
	{Name: "experiments.figure8_ms", Unit: "ms", Better: "lower", Span: "experiments.figure8", Scale: toMS},
	{Name: "experiments.figure11_ms", Unit: "ms", Better: "lower", Span: "experiments.figure11", Scale: toMS},
	{Name: "experiments.figure13_ms", Unit: "ms", Better: "lower", Span: "experiments.figure13", Scale: toMS},
	{Name: "experiments.anchor_max_rel_err", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "experiments.table1_regexp_rel_err", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "experiments.fig13_speedup_rel_err", Unit: "ratio", Better: "lower", Exact: true},

	// The simulated clock. A change meant to speed up the host must leave
	// these bit-identical.
	{Name: "sim.response_us.q1", Unit: "us", Better: "lower", Exact: true},
	{Name: "sim.response_us.q2", Unit: "us", Better: "lower", Exact: true},
	{Name: "sim.response_us.q3", Unit: "us", Better: "lower", Exact: true},
	{Name: "sim.response_us.q4", Unit: "us", Better: "lower", Exact: true},
	{Name: "sim.response_us.qh", Unit: "us", Better: "lower", Exact: true},
	{Name: "sim.hw_us_per_op", Unit: "us", Better: "lower", Exact: true},
	{Name: "sim.config_gen_ns_per_op", Unit: "ns", Better: "lower", Exact: true},

	{Name: "go.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "go.gc_pause_max_us", Unit: "us", Better: "lower"},
	{Name: "go.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "go.heap_growth_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "go.goroutines_end", Unit: "count", Better: "lower"},
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median of xs (0 for none). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return xs[rank]
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the acceptance check of BENCHMARK.json's bounds uses.
func quartiles(xs []float64) (q1, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return at(1), at(3)
}
