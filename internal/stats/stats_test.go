package stats

import (
	"math"
	"sort"
	"strings"
	"testing"

	"vix/internal/sim"
)

func TestEmptySnapshot(t *testing.T) {
	c := NewCollector(4)
	s := c.Snapshot()
	if s.AvgLatency != 0 || s.ThroughputFlits != 0 || s.FairnessRatio != 1 {
		t.Fatalf("empty snapshot not neutral: %+v", s)
	}
}

func TestThroughputAccounting(t *testing.T) {
	c := NewCollector(2)
	for i := 0; i < 100; i++ {
		c.Tick()
	}
	for i := 0; i < 40; i++ {
		c.FlitEjected(i % 2)
	}
	s := c.Snapshot()
	if want := 40.0 / (100 * 2); s.ThroughputFlits != want {
		t.Fatalf("throughput = %v, want %v", s.ThroughputFlits, want)
	}
	if s.FlitsEjected != 40 {
		t.Fatalf("flits ejected = %d", s.FlitsEjected)
	}
}

func TestLatencyStats(t *testing.T) {
	c := NewCollector(1)
	c.PacketEjected(10, 2)
	c.PacketEjected(30, 4)
	s := c.Snapshot()
	if s.AvgLatency != 20 {
		t.Fatalf("avg latency = %v, want 20", s.AvgLatency)
	}
	if s.MaxLatency != 30 {
		t.Fatalf("max latency = %v, want 30", s.MaxLatency)
	}
	if s.AvgHops != 3 {
		t.Fatalf("avg hops = %v, want 3", s.AvgHops)
	}
}

func TestFairnessRatio(t *testing.T) {
	c := NewCollector(3)
	c.Tick()
	for i := 0; i < 6; i++ {
		c.FlitEjected(0)
	}
	for i := 0; i < 2; i++ {
		c.FlitEjected(1)
	}
	for i := 0; i < 3; i++ {
		c.FlitEjected(2)
	}
	if got := c.Snapshot().FairnessRatio; got != 3 {
		t.Fatalf("fairness = %v, want 3 (6/2)", got)
	}
}

func TestFairnessStarvationIsInf(t *testing.T) {
	c := NewCollector(2)
	c.Tick()
	c.FlitEjected(0)
	if got := c.Snapshot().FairnessRatio; !math.IsInf(got, 1) {
		t.Fatalf("starved node fairness = %v, want +Inf", got)
	}
}

func TestResetClears(t *testing.T) {
	c := NewCollector(2)
	c.Tick()
	c.PacketInjected(4)
	c.FlitEjected(0)
	c.PacketEjected(12, 3)
	c.BufferWrite()
	c.FlitSent(true)
	c.Reset()
	s := c.Snapshot()
	if s.Cycles != 0 || s.FlitsEjected != 0 || s.PacketsInjected != 0 ||
		s.AvgLatency != 0 || s.BufferReads != 0 || s.BufferWrites != 0 ||
		s.XbarTraversals != 0 || s.LinkTraversals != 0 {
		t.Fatalf("Reset left state behind: %+v", s)
	}
	if s.Nodes != 2 {
		t.Fatalf("Reset lost node count: %d", s.Nodes)
	}
}

func TestActivityCounters(t *testing.T) {
	c := NewCollector(1)
	for i := 0; i < 5; i++ {
		c.BufferWrite()
	}
	// Three flits sent: one over a link, two to ejection ports.
	c.FlitSent(true)
	c.FlitSent(false)
	c.FlitSent(false)
	s := c.Snapshot()
	if s.BufferReads != 3 || s.BufferWrites != 5 || s.XbarTraversals != 3 || s.LinkTraversals != 1 {
		t.Fatalf("activity counters wrong: %+v", s)
	}
}

func TestOutOfRangeSourceIgnored(t *testing.T) {
	c := NewCollector(2)
	c.Tick()
	c.FlitEjected(-1)
	c.FlitEjected(99)
	c.FlitEjected(0)
	c.FlitEjected(1)
	if got := c.Snapshot().FairnessRatio; got != 1 {
		t.Fatalf("fairness = %v, want 1", got)
	}
	if got := c.Snapshot().FlitsEjected; got != 4 {
		t.Fatalf("flits = %d, want 4 (totals still count)", got)
	}
}

func TestLatencyPercentiles(t *testing.T) {
	c := NewCollector(1)
	for i := int64(1); i <= 100; i++ {
		c.PacketEjected(i, 1)
	}
	s := c.Snapshot()
	if s.P50Latency != 50 {
		t.Errorf("P50 = %d, want 50", s.P50Latency)
	}
	if s.P90Latency != 90 {
		t.Errorf("P90 = %d, want 90", s.P90Latency)
	}
	if s.P99Latency != 99 {
		t.Errorf("P99 = %d, want 99", s.P99Latency)
	}
	if s.P50Latency > s.P90Latency || s.P90Latency > s.P99Latency || s.P99Latency > s.MaxLatency {
		t.Errorf("percentiles not ordered: %+v", s)
	}
}

func TestPercentileSinglePacket(t *testing.T) {
	c := NewCollector(1)
	c.PacketEjected(42, 3)
	s := c.Snapshot()
	if s.P50Latency != 42 || s.P99Latency != 42 {
		t.Errorf("single-sample percentiles wrong: %+v", s)
	}
}

func TestPercentileUnorderedInput(t *testing.T) {
	c := NewCollector(1)
	for _, v := range []int64{90, 10, 50, 30, 70} {
		c.PacketEjected(v, 1)
	}
	s := c.Snapshot()
	if s.P50Latency != 50 {
		t.Errorf("P50 of {10..90} = %d, want 50", s.P50Latency)
	}
}

// sortedPercentile is the reference the histogram replaced: the
// nearest-rank p-th percentile of explicitly sorted samples.
func sortedPercentile(sorted []int64, p int) int64 {
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}

// TestHistogramMatchesSortedSamples holds the latency histogram to the
// sample array it replaced: over fuzzed latency multisets whose range
// crosses several histogram growth steps, every percentile, the mean and
// the maximum equal what sorting the samples gives, bit for bit.
func TestHistogramMatchesSortedSamples(t *testing.T) {
	rng := sim.NewRNG(19)
	mostGrowths := 0
	for trial := 0; trial < 200; trial++ {
		c := NewCollector(1)
		// Spread 1 stays inside the first histogram; 1<<14 is six
		// doublings away, and the rising bound makes the samples climb
		// through them instead of jumping to the top at once.
		spread := 1 << uint(rng.Intn(15))
		n := 1 + rng.Intn(400)
		samples := make([]int64, n)
		var sum float64
		growths := 0
		for i := range samples {
			bound := max(spread*(i+1)/n, 1)
			samples[i] = int64(rng.Intn(bound))
			if rng.Intn(4) == 0 {
				samples[i] = int64(bound - 1) // ties, and the top bucket
			}
			sum += float64(samples[i])
			before := len(c.latHist)
			c.PacketEjected(samples[i], 1)
			if len(c.latHist) != before {
				growths++
			}
		}
		mostGrowths = max(mostGrowths, growths)
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		s := c.Snapshot()
		want := Snapshot{
			AvgLatency: sum / float64(n),
			P50Latency: sortedPercentile(samples, 50),
			P90Latency: sortedPercentile(samples, 90),
			P99Latency: sortedPercentile(samples, 99),
			MaxLatency: samples[n-1],
		}
		if s.AvgLatency != want.AvgLatency || s.P50Latency != want.P50Latency || s.P90Latency != want.P90Latency ||
			s.P99Latency != want.P99Latency || s.MaxLatency != want.MaxLatency {
			t.Fatalf("trial %d (%d samples below %d): got avg %v p50 %d p90 %d p99 %d max %d, want avg %v p50 %d p90 %d p99 %d max %d",
				trial, n, spread, s.AvgLatency, s.P50Latency, s.P90Latency, s.P99Latency, s.MaxLatency,
				want.AvgLatency, want.P50Latency, want.P90Latency, want.P99Latency, want.MaxLatency)
		}
	}
	if mostGrowths < 4 {
		t.Errorf("no trial grew the histogram more than %d times; the fuzz no longer crosses growth steps", mostGrowths)
	}
}

// TestResetKeepsHistogramCapacity pins the windowed protocol: a Reset
// forgets the samples but not the room, so a window that stays below the
// largest latency already seen records without allocating.
func TestResetKeepsHistogramCapacity(t *testing.T) {
	c := NewCollector(1)
	c.PacketEjected(5000, 1)
	c.Reset()
	if s := c.Snapshot(); s.PacketsEjected != 0 || s.MaxLatency != 0 || s.P99Latency != 0 {
		t.Fatalf("Reset left latency state behind: %+v", s)
	}
	var lat int64
	if allocs := testing.AllocsPerRun(1000, func() {
		c.PacketEjected(lat%5001, 2)
		lat += 37
	}); allocs != 0 {
		t.Errorf("PacketEjected allocates %v times per call in steady state, want 0", allocs)
	}
	if s := c.Snapshot(); s.MaxLatency > 5000 || s.P50Latency == 0 {
		t.Errorf("post-Reset window summarised wrongly: %+v", s)
	}
}

// TestPacketEjectedRejectsNegativeLatency: a negative latency is reported
// by this package, not by an index-out-of-range in the runtime.
func TestPacketEjectedRejectsNegativeLatency(t *testing.T) {
	for _, lat := range []int64{-1, math.MinInt64} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "stats: ") {
					t.Errorf("latency %d: panic %q, want a stats: message", lat, msg)
				}
			}()
			NewCollector(1).PacketEjected(lat, 1)
		}()
	}
}
