package main

import (
	"math"
	"sort"
)

// metricDef names one metric of the ledger. The tables below are the
// single source of the names: BENCHMARK.json repeats them (a test keeps
// the two equal) and README.md explains them.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median a later change may lose
}

// endToEnd lists what a user of the simulator or of vixd sees. The
// driver's contract has every untraced run print every one of them, so
// each is defined on every workload; an operation is one measurement
// window of a simulation workload (a fixed cycle count, so op_p50_ms is
// also its simulated cycles per second), one cold vixd case or one warm
// replay of a grid round. A bound is at least three times the widest
// spread seen on any workload over ten seeds (README.md, "Calibration");
// the simulated metrics would be exact on one seed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"sim_throughput_flits_node_cycle", "flits/node/cyc", "higher", 0.03},
	{"sim_latency_cycles_mean", "cyc", "lower", 0.03},
}

// perLayer lists the layer metrics. The contract has every traced run
// print every one of them, so a workload fills the rows of layers its
// operations never enter from a fixed reference: the vixd workloads take
// the kernel rows from a direct replay of one of their own case specs, the
// simulation workloads take the config/harness/store rows from solo
// probes. Metrics only some workloads can measure (service.*, store
// counters, paper.*, network.sharded_speedup_w2) are printed and recorded
// in the report under "extra" and are not part of this list.
var perLayer = []metricDef{
	{Name: "sim.bernoulli_ns", Unit: "ns", Better: "lower"},
	{Name: "traffic.dest_calls_per_cycle", Unit: "count", Better: "lower"},
	{Name: "traffic.dest_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "alloc.calls_per_cycle", Unit: "count", Better: "lower"},
	{Name: "alloc.empty_call_share", Unit: "ratio", Better: "lower"},
	{Name: "alloc.requests_per_call", Unit: "count", Better: "lower"},
	{Name: "alloc.grants_per_call", Unit: "count", Better: "higher"},
	{Name: "alloc.grant_ratio", Unit: "ratio", Better: "higher"},
	{Name: "alloc.ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "alloc.host_share", Unit: "ratio", Better: "lower"},
	{Name: "router.solo_tick_ns", Unit: "ns", Better: "lower"},
	{Name: "router.solo_flits_per_tick", Unit: "count", Better: "higher"},
	{Name: "router.est_host_share", Unit: "ratio", Better: "lower"},
	{Name: "network.new_ms", Unit: "ms", Better: "lower"},
	{Name: "network.step_ns", Unit: "ns", Better: "lower"},
	{Name: "network.router_ticks_per_cycle", Unit: "count", Better: "lower"},
	{Name: "network.active_router_share", Unit: "ratio", Better: "lower"},
	{Name: "network.ns_per_router_tick", Unit: "ns", Better: "lower"},
	{Name: "network.idle_step_ns", Unit: "ns", Better: "lower"},
	{Name: "network.self_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "network.inflight_flits_mean", Unit: "count", Better: "lower"},
	{Name: "network.source_queue_pkts", Unit: "count", Better: "lower"},
	{Name: "network.mallocs_per_cycle", Unit: "count", Better: "lower"},
	{Name: "network.alloc_bytes_per_cycle", Unit: "B", Better: "lower"},
	{Name: "network.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "stats.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "stats.latency_samples", Unit: "count", Better: "higher"},
	{Name: "config.build_us", Unit: "us", Better: "lower"},
	{Name: "harness.run_overhead_us", Unit: "us", Better: "lower"},
	{Name: "store.do_hit_us", Unit: "us", Better: "lower"},
	{Name: "store.put_us", Unit: "us", Better: "lower"},
	{Name: "trace.clock_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// sample is one reported number: the median of N measurements with their
// quartiles, or an exact count when N is 1.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"samples"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// exact reports a count that repeats for a seed, or a single timing.
func exact(v float64, unit string) sample {
	return sample{Value: v, Unit: unit, N: 1, Q1: v, Q3: v}
}

// summarize reports the median and quartiles of vals.
func summarize(vals []float64, unit string) sample {
	q1, med, q3 := quartiles(vals)
	return sample{Value: med, Unit: unit, N: len(vals), Q1: q1, Q3: q3}
}

// quartiles returns the cut points Python's statistics.quantiles(vals,
// n=4) gives (the exclusive method), so the spreads in README.md are the
// ones the driver computes. Fewer than two values have no spread.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s)
	switch m {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentile returns the nearest-rank p-th percentile of vals.
func percentile(vals []float64, p int) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	idx := (len(s)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return s[idx]
}

// median returns the middle of vals.
func median(vals []float64) float64 {
	_, med, _ := quartiles(vals)
	return med
}

// histogram aggregates the durations of a hot per-cycle call in memory:
// a count, a total, and log2 buckets of nanoseconds.
type histogram struct {
	Count   int64     `json:"count"`
	TotalNS int64     `json:"total_ns"`
	Log2    [40]int64 `json:"log2_ns"`
}

func (h *histogram) add(ns int64) {
	h.Count++
	h.TotalNS += ns
	b := 0
	for v := ns; v > 1 && b < len(h.Log2)-1; v >>= 1 {
		b++
	}
	h.Log2[b]++
}

func (h *histogram) merge(o *histogram) {
	h.Count += o.Count
	h.TotalNS += o.TotalNS
	for i, c := range o.Log2 {
		h.Log2[i] += c
	}
}
