// Package stats collects the network-level metrics the paper reports:
// average packet latency (cycles), accepted throughput (flits or packets
// per cycle per node), and the per-source fairness ratio of Figure 9.
package stats

import (
	"math"
	"sort"
)

// Collector accumulates metrics over a measurement window. The usual
// protocol is warm up, Reset, measure, Snapshot.
type Collector struct {
	nodes int

	cycles          int64
	packetsInjected int64
	flitsInjected   int64
	packetsEjected  int64
	flitsEjected    int64

	latencySum   float64
	latencyCount int64
	latencyMax   int64
	latencies    []int64

	hopSum   int64
	hopCount int64

	perSrcFlits []int64

	// activity counters for the energy model
	bufferReads, bufferWrites int64
	xbarTraversals            int64
	linkTraversals            int64
}

// NewCollector returns a collector for a network with the given number of
// terminal nodes.
func NewCollector(nodes int) *Collector {
	return &Collector{nodes: nodes, perSrcFlits: make([]int64, nodes)}
}

// Reset clears all accumulated metrics (start of a measurement window).
// The latency and per-source backing arrays are retained so windowed
// protocols (warm up, Reset, measure) do not reallocate them.
func (c *Collector) Reset() {
	lat := c.latencies[:0]
	per := c.perSrcFlits
	for i := range per {
		per[i] = 0
	}
	*c = Collector{nodes: c.nodes, latencies: lat, perSrcFlits: per}
}

// Reserve grows the latency sample array's capacity to hold at least n
// samples without reallocating. Long measurement windows (benchmarks
// measuring allocation churn, in particular) call it after warmup with
// an estimate of the window's packet count, so that sample recording —
// measurement bookkeeping, not simulation state — does not dominate the
// byte counters it is there to read.
func (c *Collector) Reserve(n int) {
	if n <= cap(c.latencies) {
		return
	}
	grown := make([]int64, len(c.latencies), n)
	copy(grown, c.latencies)
	c.latencies = grown
}

// Tick advances the measured cycle count.
func (c *Collector) Tick() { c.cycles++ }

// PacketInjected records a packet of the given flit count entering the
// network.
func (c *Collector) PacketInjected(flits int) {
	c.packetsInjected++
	c.flitsInjected += int64(flits)
}

// FlitEjected records one flit leaving at its destination, attributed to
// its source for fairness accounting.
func (c *Collector) FlitEjected(src int) {
	c.flitsEjected++
	if src >= 0 && src < c.nodes {
		c.perSrcFlits[src]++
	}
}

// PacketEjected records a completed packet with its end-to-end latency
// (generation to tail ejection) and hop count.
func (c *Collector) PacketEjected(latency int64, hops int) {
	c.packetsEjected++
	c.latencySum += float64(latency)
	c.latencyCount++
	c.latencies = append(c.latencies, latency)
	if latency > c.latencyMax {
		c.latencyMax = latency
	}
	c.hopSum += int64(hops)
	c.hopCount++
}

// BufferWrite records a flit written into an input buffer, for the energy
// model. The rest of the datapath activity arrives through Merge.
func (c *Collector) BufferWrite() { c.bufferWrites++ }

// Delta is a mergeable batch of datapath activity counters for the energy
// model. The router phase accumulates one Delta per cycle — one per
// worklist segment while routers tick concurrently — and folds them into
// the collector on the stepping goroutine; integer addition is associative
// and commutative, so the merged totals are identical for any worker count
// and any merge order. Order-sensitive metrics — the latency accumulation is a float
// sum, whose value depends on addition order — deliberately have no
// Delta fields: they are only ever updated on the stepping goroutine.
type Delta struct {
	BufferReads    int64
	BufferWrites   int64
	XbarTraversals int64
	LinkTraversals int64
}

// Merge folds an activity delta into the collector.
func (c *Collector) Merge(d Delta) {
	c.bufferReads += d.BufferReads
	c.bufferWrites += d.BufferWrites
	c.xbarTraversals += d.XbarTraversals
	c.linkTraversals += d.LinkTraversals
}

// Snapshot is an immutable summary of a measurement window.
type Snapshot struct {
	Cycles int64
	Nodes  int

	PacketsInjected, PacketsEjected int64
	FlitsInjected, FlitsEjected     int64

	// AvgLatency is the mean packet latency in cycles from generation
	// (including source queueing) to tail ejection. P50/P90/P99Latency
	// are the corresponding percentiles of the same distribution.
	AvgLatency float64
	P50Latency int64
	P90Latency int64
	P99Latency int64
	MaxLatency int64
	AvgHops    float64

	// ThroughputFlits is accepted flits/cycle/node; ThroughputPackets is
	// accepted packets/cycle/node.
	ThroughputFlits   float64
	ThroughputPackets float64

	// FairnessRatio is max/min per-source accepted flit throughput
	// (Figure 9); sources that received nothing make it +Inf.
	FairnessRatio float64

	// Activity counters for the energy model.
	BufferReads, BufferWrites, XbarTraversals, LinkTraversals int64
}

// Snapshot summarises the current window.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		Cycles:          c.cycles,
		Nodes:           c.nodes,
		PacketsInjected: c.packetsInjected,
		PacketsEjected:  c.packetsEjected,
		FlitsInjected:   c.flitsInjected,
		FlitsEjected:    c.flitsEjected,
		MaxLatency:      c.latencyMax,
		BufferReads:     c.bufferReads,
		BufferWrites:    c.bufferWrites,
		XbarTraversals:  c.xbarTraversals,
		LinkTraversals:  c.linkTraversals,
	}
	if c.latencyCount > 0 {
		s.AvgLatency = c.latencySum / float64(c.latencyCount)
		sorted := append([]int64(nil), c.latencies...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		s.P50Latency = percentile(sorted, 50)
		s.P90Latency = percentile(sorted, 90)
		s.P99Latency = percentile(sorted, 99)
	}
	if c.hopCount > 0 {
		s.AvgHops = float64(c.hopSum) / float64(c.hopCount)
	}
	if c.cycles > 0 && c.nodes > 0 {
		denom := float64(c.cycles) * float64(c.nodes)
		s.ThroughputFlits = float64(c.flitsEjected) / denom
		s.ThroughputPackets = float64(c.packetsEjected) / denom
	}
	s.FairnessRatio = fairness(c.perSrcFlits)
	return s
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}

// fairness returns max/min of the per-source counts; +Inf if any source
// was starved entirely while another progressed, and 1 when idle.
func fairness(counts []int64) float64 {
	if len(counts) == 0 {
		return 1
	}
	min, max := counts[0], counts[0]
	for _, v := range counts[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return 1
	}
	if min == 0 {
		return math.Inf(1)
	}
	return float64(max) / float64(min)
}
