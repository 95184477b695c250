// Package stats collects the network-level metrics the paper reports:
// average packet latency (cycles), accepted throughput (flits or packets
// per cycle per node), and the per-source fairness ratio of Figure 9.
package stats

import (
	"fmt"
	"math"
	"slices"
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

	latencySum float64
	latencyMax int64
	// latHist[l] counts the packets ejected with latency l: an exact
	// histogram, so the percentiles are the sorted samples' and the
	// memory follows the largest latency seen, not the run length.
	latHist []uint32

	hopSum int64

	perSrcFlits []int64

	// activity counters for the energy model; a flit sent is read out of
	// its buffer and switched, so one count is both
	bufferWrites, flitsSent, linkTraversals int64
}

// NewCollector returns a collector for a network with the given number of
// terminal nodes.
func NewCollector(nodes int) *Collector {
	return &Collector{nodes: nodes, perSrcFlits: make([]int64, nodes)}
}

// Reset clears all accumulated metrics (start of a measurement window).
// The latency histogram and per-source arrays are retained so windowed
// protocols (warm up, Reset, measure) do not reallocate them.
func (c *Collector) Reset() {
	hist, per := c.latHist, c.perSrcFlits
	clear(hist)
	clear(per)
	*c = Collector{nodes: c.nodes, latHist: hist, perSrcFlits: per}
}

// Reserve is a no-op: the latency histogram needs no room per sample. It
// is kept only because bench/sim.go, which is frozen outside benchmark
// PRs, calls it; the next benchmark PR deletes the call and this method.
func (c *Collector) Reserve(n int) {}

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
// (generation to tail ejection) and hop count. A negative latency is a
// caller bug and panics.
func (c *Collector) PacketEjected(latency int64, hops int) {
	if latency < 0 {
		panic(fmt.Sprintf("stats: negative packet latency %d", latency))
	}
	if latency >= int64(len(c.latHist)) {
		c.growHist(latency)
	}
	c.latHist[latency]++
	c.packetsEjected++
	c.latencySum += float64(latency)
	if latency > c.latencyMax {
		c.latencyMax = latency
	}
	c.hopSum += int64(hops)
}

// latHistMin is the histogram's first size; every growth at least doubles
// it, so a run reaches its largest latency in O(log) allocations and the
// steady state allocates nothing.
const latHistMin = 256

// growHist extends the histogram to index latency.
func (c *Collector) growHist(latency int64) {
	n := max(2*len(c.latHist), latHistMin)
	for int64(n) <= latency {
		n *= 2
	}
	grown := make([]uint32, n)
	copy(grown, c.latHist)
	c.latHist = grown
}

// PerSourceFlits returns a copy of the window's ejected flits per
// source node, indexed by node: the counts the fairness ratio reduces
// to one number. It is not a Snapshot field, because Snapshots are
// compared with != and hashed into digests.
func (c *Collector) PerSourceFlits() []int64 {
	return slices.Clone(c.perSrcFlits)
}

// BufferWrite records a flit written into an input buffer, for the energy
// model.
func (c *Collector) BufferWrite() { c.bufferWrites++ }

// FlitSent records a flit read out of an input buffer and across the
// crossbar, and, if it leaves through a link, across that link, for the
// energy model.
func (c *Collector) FlitSent(link bool) {
	c.flitsSent++
	if link {
		c.linkTraversals++
	}
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
		BufferReads:     c.flitsSent,
		BufferWrites:    c.bufferWrites,
		XbarTraversals:  c.flitsSent,
		LinkTraversals:  c.linkTraversals,
	}
	if c.packetsEjected > 0 {
		s.AvgLatency = c.latencySum / float64(c.packetsEjected)
		s.P50Latency = c.percentile(50)
		s.P90Latency = c.percentile(90)
		s.P99Latency = c.percentile(99)
		s.AvgHops = float64(c.hopSum) / float64(c.packetsEjected)
	}
	if c.cycles > 0 && c.nodes > 0 {
		denom := float64(c.cycles) * float64(c.nodes)
		s.ThroughputFlits = float64(c.flitsEjected) / denom
		s.ThroughputPackets = float64(c.packetsEjected) / denom
	}
	s.FairnessRatio = fairness(c.perSrcFlits)
	return s
}

// percentile returns the nearest-rank p-th percentile of the recorded
// latencies — the value at 1-based rank ceil(count*p/100) of the sorted
// samples — by walking up the histogram. There must be a sample.
func (c *Collector) percentile(p int64) int64 {
	rank := max((c.packetsEjected*p+99)/100, 1)
	var seen int64
	for l, n := range c.latHist {
		if seen += int64(n); seen >= rank {
			return int64(l)
		}
	}
	panic(fmt.Sprintf("stats: latency histogram holds %d samples, want %d", seen, c.packetsEjected))
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
