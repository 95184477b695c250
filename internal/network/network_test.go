package network

import (
	"fmt"
	"math"
	"testing"

	"vix/internal/alloc"
	"vix/internal/router"
	"vix/internal/routing"
	"vix/internal/sim"
	"vix/internal/stats"
	"vix/internal/topology"
	"vix/internal/traffic"
)

func meshConfig(topo *topology.Topology, kind alloc.Kind, k int, policy router.PolicyKind) Config {
	return Config{
		Topology: topo,
		Router: router.Config{
			Ports: topo.Radix, VCs: 6, VirtualInputs: k, BufDepth: 5,
			AllocKind: kind, Policy: policy,
		},
		Pattern:       traffic.NewUniform(topo.NumNodes),
		InjectionRate: 0.05,
		PacketSize:    4,
		Seed:          42,
	}
}

// burstWorkload injects Bernoulli traffic until a cutoff cycle, then goes
// silent, letting tests drain the network completely.
type burstWorkload struct {
	until     int64
	rate      float64
	pattern   traffic.Pattern
	size      int
	generated int
	delivered int
}

func (w *burstWorkload) Generate(node int, cycle int64, rng *sim.RNG) []PacketSpec {
	if cycle >= w.until || !rng.Bernoulli(w.rate) {
		return nil
	}
	w.generated++
	return []PacketSpec{{Dst: w.pattern.Dest(node, rng), Size: w.size}}
}

func (w *burstWorkload) Delivered(d Delivery) { w.delivered++ }

// drainedBursts sends a 500-cycle burst at 0.08 over every topology kind
// at k = 1 and 2, drains it under the checker, and hands each drained run
// to check as a subtest. Every generated packet must have been
// delivered, each flit counted once by the checker and the collector
// alike. The 5x5 torus is there for its class-0 hops: on a 4-ring every
// wrap path is the wrap hop itself, class 1.
func drainedBursts(t *testing.T, check func(t *testing.T, c *checker, s stats.Snapshot)) {
	for _, topo := range []*topology.Topology{
		topology.NewMesh(4, 4),
		topology.NewCMesh(2, 2, 4),
		topology.NewFBfly(2, 2, 4),
		topology.NewTorus(4, 4),
		topology.NewTorus(5, 5),
	} {
		for _, k := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s_k%d", topo.Name, k), func(t *testing.T) {
				w := &burstWorkload{until: 500, rate: 0.08, pattern: traffic.NewUniform(topo.NumNodes), size: 4}
				cfg := meshConfig(topo, alloc.KindSeparableIF, k, router.PolicyBalanced)
				cfg.Workload = w
				c := newChecked(t, cfg)
				if err := c.run(500, false); err != nil {
					t.Fatal(err)
				}
				if err := c.drain(20000); err != nil {
					t.Fatal(err)
				}
				s := c.n.Collector().Snapshot()
				if w.delivered != w.generated || c.flits == 0 || c.flits != s.FlitsEjected {
					t.Fatalf("generated %d packets, delivered %d; ejected %d flits, the collector counted %d",
						w.generated, w.delivered, c.flits, s.FlitsEjected)
				}
				check(t, c, s)
			})
		}
	}
}

// TestConservationAndDrain holds every drained burst to delivery and to
// the checker's drain rows: no flit or live record left, every credit
// back.
func TestConservationAndDrain(t *testing.T) {
	drainedBursts(t, func(*testing.T, *checker, stats.Snapshot) {})
}

// TestActivityIdentitiesOnADrainedRun checks the datapath counters Fig
// 11's energy model rests on against the checker's totals over each
// drained burst. Every hop crosses one link, so LinkTraversals = Σ hops.
// Every flit is written into a buffer once at its source router and once
// per hop, and read out and switched once per router it leaves, the
// ejecting one included, so BufferWrites, BufferReads and XbarTraversals
// each equal flits + Σ hops. The collector reports BufferReads and
// XbarTraversals from one count of flits sent (Collector.FlitSent), so
// only one of the two is an independent check.
func TestActivityIdentitiesOnADrainedRun(t *testing.T) {
	drainedBursts(t, func(t *testing.T, c *checker, s stats.Snapshot) {
		if s.LinkTraversals != c.hops {
			t.Errorf("LinkTraversals = %d, want Σ hops = %d", s.LinkTraversals, c.hops)
		}
		if want := c.flits + c.hops; s.XbarTraversals != want || s.BufferReads != want || s.BufferWrites != want {
			t.Errorf("XbarTraversals, BufferReads, BufferWrites = %d, %d, %d; want flits + Σ hops = %d + %d",
				s.XbarTraversals, s.BufferReads, s.BufferWrites, c.flits, c.hops)
		}
	})
}

// TestLittlesLawOnADrainedRun checks Little's law in its sample-path
// form over each drained burst: a flit in a source queue or in the
// network at the end of a cycle is one flit-cycle of latency, so Σ over
// cycles of that population, the checker's flitCycles, equals Σ
// (EjectCycle − CreateCycle) over the flits ejected. A flit lost or
// counted twice, or a timestamp off by a cycle, breaks it.
func TestLittlesLawOnADrainedRun(t *testing.T) {
	drainedBursts(t, func(t *testing.T, c *checker, _ stats.Snapshot) {
		if c.flitCycles != c.latency {
			t.Errorf("Σ occupancy = %d flit-cycles, Σ latency = %d", c.flitCycles, c.latency)
		}
	})
}

// oneAtATime sends the packet set by send from its source in the next
// Step and records its delivery; the driver sends the next one only after
// that, so every packet crosses an otherwise empty network.
type oneAtATime struct {
	pending  *PacketSpec
	src      int
	delivery *Delivery
}

func (w *oneAtATime) send(src int, spec PacketSpec) {
	w.src, w.pending, w.delivery = src, &spec, nil
}

func (w *oneAtATime) Generate(node int, cycle int64, rng *sim.RNG) []PacketSpec {
	if w.pending == nil || node != w.src {
		return nil
	}
	spec := *w.pending
	w.pending = nil
	return []PacketSpec{spec}
}

func (w *oneAtATime) Delivered(d Delivery) { w.delivery = &d }

// Zero-load latency must match the pipeline model exactly:
// HopDelay*(hops+1) + (size-1) cycles from generation to tail ejection,
// with hops the DOR path length. One network per topology and hop delay
// carries every (src, dst) pair in turn at 1-, 4- and 16-flit packets;
// hop delay 5 is the pipeline study's five-stage router.
//
// The formula assumes a VC's credit loop (HopDelay + DefaultCreditDelay) fits
// its buffer depth, as the default 3 + 2 = 5 does. The five-stage loop is
// 7 cycles over 5-flit buffers, so a packet longer than the buffer waits
// for credits on its first link, 2 cycles per further 5 flits (16-flit
// 0->1 on the 8x8 mesh: 31 cycles, not 25). That term is creditStall,
// derived separately and zero wherever the formula applies.
func TestZeroLoadLatencyFormula(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.NewMesh(8, 8),
		topology.NewCMesh(4, 4, 4),
		topology.NewFBfly(4, 4, 4),
		topology.NewTorus(8, 8),
	} {
		tab := routing.Compile(topo)
		for _, hopDelay := range []int{DefaultHopDelay, 5} {
			w := &oneAtATime{}
			cfg := meshConfig(topo, alloc.KindSeparableIF, 1, router.PolicyMaxFree)
			cfg.Workload, cfg.HopDelay = w, hopDelay
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for src := 0; src < topo.NumNodes; src++ {
				for dst := 0; dst < topo.NumNodes; dst++ {
					hops := dorHops(topo, tab, src, dst)
					for _, size := range []int{1, 4, 16} {
						w.send(src, PacketSpec{Dst: dst, Size: size})
						want := int64(hopDelay*(hops+1) + size - 1)
						if hops > 0 {
							want += creditStall(size, hopDelay+DefaultCreditDelay, cfg.Router.BufDepth)
						}
						for i := int64(0); w.delivery == nil && i <= 2*want; i++ {
							n.Step()
						}
						d := w.delivery
						if d == nil {
							t.Fatalf("%s hop delay %d: %d->%d size %d not delivered within %d cycles",
								topo.Name, hopDelay, src, dst, size, 2*want)
						}
						if got := d.EjectCycle - d.CreateCycle; got != want || d.Hops != hops {
							t.Errorf("%s hop delay %d: %d->%d size %d: latency %d over %d hops, want %d over %d",
								topo.Name, hopDelay, src, dst, size, got, d.Hops, want, hops)
						}
					}
				}
			}
		}
	}
}

// creditStall is the cycles a lone packet of size flits loses to credits
// on its first link when a VC's credit loop of loop cycles exceeds its
// depth-flit buffer: flit i+depth may leave only loop cycles after flit
// i, not depth, and later links see the same spacing and stall no more.
func creditStall(size, loop, depth int) int64 {
	if loop <= depth {
		return 0
	}
	return int64((size-1)/depth) * int64(loop-depth)
}

// dorHops walks tab's routes from src's router and counts the links
// crossed before dst's local port is reached.
func dorHops(topo *topology.Topology, tab *routing.Table, src, dst int) int {
	r, hops := topo.NodeRouter[src], 0
	for {
		c := topo.Conn[r][tab.Port(r, dst)]
		if c.Kind != topology.Link {
			return hops
		}
		r, hops = int(c.PeerRouter), hops+1
	}
}

// Topology.Diameter, which Validate holds against the hop counter, is the
// longest DOR path of the topology.
func TestDiameterIsTheLongestDORPath(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.NewMesh(4, 3),
		topology.NewCMesh(3, 2, 2),
		topology.NewTorus(5, 4),
		topology.NewTorus(2, 3),
		topology.NewFBfly(4, 3, 2),
		topology.NewFBfly(1, 3, 1),
	} {
		tab := routing.Compile(topo)
		longest := 0
		for src := 0; src < topo.NumNodes; src++ {
			for dst := 0; dst < topo.NumNodes; dst++ {
				longest = max(longest, dorHops(topo, tab, src, dst))
			}
		}
		if got := topo.Diameter(); got != longest {
			t.Errorf("%s: Diameter() = %d, longest DOR path crosses %d links", topo.Name, got, longest)
		}
	}
}

// saturatedChecked builds a saturated separable-IF network on topo at k
// virtual inputs under the checker.
func saturatedChecked(t *testing.T, topo *topology.Topology, k int) *checker {
	cfg := meshConfig(topo, alloc.KindSeparableIF, k, router.PolicyBalanced)
	cfg.MaxInjection, cfg.InjectionRate = true, 0
	return newChecked(t, cfg)
}

// TestEjectedRecordsCarryHopStateAndOrder runs saturated networks of
// every routing function at k = 1 and 2 for 2000 cycles under the
// checker. VIX lets k VCs of one input cross the switch in one cycle,
// the case where a per-VC credit loop or a packet's head-to-tail order
// would break. A flit's hop state rides in buffer slots and link events
// and meets its packet's record only at ejection, so the ejection row
// holds every Flit OnEject sees to its DOR path, local port and order,
// and the record row holds each record live exactly while its packet is
// in flight.
func TestEjectedRecordsCarryHopStateAndOrder(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.NewMesh(4, 4),
		topology.NewTorus(5, 5),
		topology.NewFBfly(4, 4, 2),
		topology.NewCMesh(2, 2, 4),
	} {
		t.Run(topo.Name, func(t *testing.T) {
			for _, k := range []int{1, 2} {
				t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
					c := saturatedChecked(t, topo, k)
					if err := c.run(2000, false); err != nil {
						t.Fatal(err)
					}
					if c.tails == 0 {
						t.Fatal("no packet was delivered")
					}
				})
			}
		})
	}
}

// Flits of each packet must eject in sequence order (wormhole integrity)
// under heavy congested traffic with VIX enabled: the checker's ejection
// row holds every flit of a saturated 4x4 mesh at k = 2 to its packet's
// next Seq, over 3000 cycles in which complete packets eject.
func TestFlitOrderingUnderLoad(t *testing.T) {
	c := saturatedChecked(t, topology.NewMesh(4, 4), 2)
	if err := c.run(3000, false); err != nil {
		t.Fatal(err)
	}
	if c.tails == 0 {
		t.Fatal("no traffic flowed")
	}
}

// A packet's record is live exactly while the packet has a flit in the
// network: allocated when its head is injected, freed when its tail
// ejects. On saturated networks of all three routing functions the
// checker's record row holds the live records to the heads injected less
// the tails ejected, and to no more than the flits in flight, every
// cycle; records must also actually be live, so the row is not met by an
// empty network.
func TestPacketRecordsLiveWhileTheirPacketIsInFlight(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.NewMesh(4, 4),
		topology.NewTorus(5, 5),
		topology.NewFBfly(4, 4, 2),
	} {
		t.Run(topo.Name, func(t *testing.T) {
			c := saturatedChecked(t, topo, 2)
			peak := 0
			for i := 0; i < 2000; i++ {
				if err := c.run(1, false); err != nil {
					t.Fatal(err)
				}
				peak = max(peak, c.n.flits.Live())
			}
			if peak == 0 || c.tails == 0 {
				t.Fatalf("peak %d live records, %d tails ejected: no packet went through", peak, c.tails)
			}
		})
	}
}

// Same seed, same configuration: identical results.
func TestNetworkDeterminism(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	run := func() (int64, float64) {
		n, err := New(meshConfig(topo, alloc.KindSeparableIF, 2, router.PolicyBalanced))
		if err != nil {
			t.Fatal(err)
		}
		n.Warmup(500)
		s := n.Measure(1000)
		return s.FlitsEjected, s.AvgLatency
	}
	f1, l1 := run()
	f2, l2 := run()
	if f1 != f2 || l1 != l2 {
		t.Fatalf("same seed diverged: (%d, %v) vs (%d, %v)", f1, l1, f2, l2)
	}
}

// Different seeds should give (slightly) different results — the RNG is
// actually being used.
func TestSeedMatters(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	cfg := meshConfig(topo, alloc.KindSeparableIF, 1, router.PolicyMaxFree)
	n1, _ := New(cfg)
	cfg.Seed = 43
	n2, _ := New(cfg)
	n1.Warmup(200)
	n2.Warmup(200)
	s1 := n1.Measure(800)
	s2 := n2.Measure(800)
	if s1.AvgLatency == s2.AvgLatency && s1.FlitsEjected == s2.FlitsEjected {
		t.Fatal("different seeds produced identical statistics")
	}
}

// The headline network-level claim on a small mesh: VIX saturation
// throughput exceeds baseline IF by a clear margin.
func TestVIXThroughputGainAtSaturation(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	run := func(k int, policy router.PolicyKind) float64 {
		cfg := meshConfig(topo, alloc.KindSeparableIF, k, policy)
		cfg.MaxInjection = true
		cfg.InjectionRate = 0
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Warmup(1000)
		return n.Measure(3000).ThroughputFlits
	}
	base := run(1, router.PolicyMaxFree)
	vix := run(2, router.PolicyBalanced)
	if vix < 1.08*base {
		t.Fatalf("VIX throughput %.4f not at least 8%% over baseline %.4f", vix, base)
	}
}

// At low load all allocation schemes perform nearly identically (the
// paper's observation about Figure 8).
func TestLowLoadLatencyInsensitiveToAllocator(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	var lats []float64
	for _, kind := range []alloc.Kind{alloc.KindSeparableIF, alloc.KindWavefront, alloc.KindAugmentingPath} {
		cfg := meshConfig(topo, kind, 1, router.PolicyMaxFree)
		cfg.InjectionRate = 0.02
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Warmup(500)
		lats = append(lats, n.Measure(2000).AvgLatency)
	}
	for _, l := range lats[1:] {
		if math.Abs(l-lats[0])/lats[0] > 0.05 {
			t.Fatalf("low-load latencies diverge: %v", lats)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	good := meshConfig(topo, alloc.KindSeparableIF, 1, router.PolicyMaxFree)
	if _, err := New(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(c *Config){
		func(c *Config) { c.Topology = nil },
		func(c *Config) { c.Pattern = nil },
		func(c *Config) { c.Router.Ports = 3 },
		func(c *Config) { c.InjectionRate = -1 },
		func(c *Config) { c.InjectionRate = 0 },
		func(c *Config) { c.InjectionRate = math.NaN() },
		func(c *Config) { c.InjectionRate = math.Inf(1) },
		func(c *Config) { c.Router.BufDepth = 0 },
		func(c *Config) { c.Router.AllocKind = "bogus" },
		func(c *Config) { c.PacketSize = -2 },
		func(c *Config) { c.HopDelay = -1 },
		func(c *Config) { c.HopDelay = MaxHopDelay + 1 },
	}
	for i, mutate := range cases {
		cfg := meshConfig(topo, alloc.KindSeparableIF, 1, router.PolicyMaxFree)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// Link events name routers in an int32, packet records count hops in an
// int16, and buffer slots name packet records in 30 bits, so the packets
// that may be in flight at once (maxLivePackets) must stay within 2^30;
// Validate rejects a topology that would overflow them. The topologies are descriptions only: Validate
// reads no wiring, and none is built.
func TestConfigValidationNarrowFieldBounds(t *testing.T) {
	tooMany := math.MaxInt32
	tooMany++ // at run time: the constant would not compile where int is 32 bits
	grid := func(kind topology.Kind, w, h int) *topology.Topology {
		return &topology.Topology{Kind: kind, W: w, H: h, Conc: 1, NumRouters: w * h, NumNodes: w * h, Radix: 5}
	}
	// ids describes n one-node routers: 5 ports of 6 VCs x 5 flits, and a
	// terminal's ejections over the hop delay, may hold a packet each.
	fits := (router.MaxFlitID + 1) / (5*6*5 + DefaultHopDelay)
	ids := func(n int) *topology.Topology {
		return &topology.Topology{Kind: topology.KindFBfly, W: 2, H: 2, NumRouters: n, NumNodes: n, Radix: 5}
	}
	for _, tc := range []struct {
		name string
		topo *topology.Topology
		ok   bool
	}{
		{"mesh diameter 32767", grid(topology.KindMesh, math.MaxInt16+1, 1), true},
		{"mesh diameter 32768", grid(topology.KindMesh, math.MaxInt16+2, 1), false},
		{"mesh diameter 32768 over two dimensions", grid(topology.KindMesh, 1<<15, 2), false},
		{"torus diameter 32767", grid(topology.KindTorus, 2*math.MaxInt16+1, 1), true},
		{"torus diameter 32768", grid(topology.KindTorus, 2*math.MaxInt16+2, 1), false},
		{"fbfly diameter 2", grid(topology.KindFBfly, 1<<15, 1<<4), true},
		{"2^30 record ids", ids(fits), true},
		{"2^30 record ids and one router", ids(fits + 1), false},
		{"2^31 nodes", &topology.Topology{Kind: topology.KindFBfly, W: 2, H: 2, NumRouters: 4, NumNodes: tooMany, Radix: 5}, false},
		{"2^31 routers", &topology.Topology{Kind: topology.KindFBfly, W: 2, H: 2, NumRouters: tooMany, NumNodes: 4, Radix: 5}, false},
	} {
		cfg := meshConfig(tc.topo, alloc.KindSeparableIF, 1, router.PolicyMaxFree)
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// Defaults are applied: zero HopDelay/PacketSize pick the
// paper's three-stage pipeline values.
func TestDefaults(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	cfg := meshConfig(topo, alloc.KindSeparableIF, 1, router.PolicyMaxFree)
	cfg.PacketSize = 0
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(200)
	if n.Cycle() != 200 {
		t.Fatalf("cycle = %d", n.Cycle())
	}
}

// Wavefront and AP also run end-to-end on the full stack and deliver
// comparable traffic (sanity integration of every allocator kind).
func TestAllAllocatorsEndToEnd(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	for _, kind := range []alloc.Kind{alloc.KindSeparableIF, alloc.KindWavefront, alloc.KindAugmentingPath, alloc.KindPacketChaining} {
		cfg := meshConfig(topo, kind, 1, router.PolicyMaxFree)
		n, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		n.Warmup(300)
		s := n.Measure(700)
		// Offered load 0.05*4 = 0.2 flits/node/cycle, well below
		// saturation: all schemes must accept nearly all of it.
		if s.ThroughputFlits < 0.17 {
			t.Errorf("%s: accepted %.4f flits/node/cycle at offered 0.2", kind, s.ThroughputFlits)
		}
	}
	// Ideal allocator needs per-VC geometry.
	cfg := meshConfig(topo, alloc.KindIdeal, 6, router.PolicyMaxFree)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Warmup(300)
	if s := n.Measure(700); s.ThroughputFlits < 0.17 {
		t.Errorf("ideal: accepted %.4f flits/node/cycle at offered 0.2", s.ThroughputFlits)
	}
}

// The forward-progress watchdog trips when flits sit in flight with no
// ejection. An artificially tiny threshold makes ordinary pipeline
// latency look like a stall, which exercises the mechanism without
// needing a genuinely deadlocked configuration (DOR cannot deadlock).
func TestDeadlockWatchdogTrips(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	w := &oneAtATime{}
	w.send(0, PacketSpec{Dst: 15, Size: 4})
	cfg := meshConfig(topo, alloc.KindSeparableIF, 1, router.PolicyMaxFree)
	cfg.Workload = w
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.stallLimit = 2 // absurdly tight: pipeline latency alone exceeds it
	defer func() {
		if recover() == nil {
			t.Fatal("watchdog did not trip at threshold 2")
		}
	}()
	n.Run(100)
}

// With the default threshold the watchdog never trips on healthy
// saturated traffic.
func TestDeadlockWatchdogQuietOnHealthyTraffic(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	cfg := meshConfig(topo, alloc.KindSeparableIF, 2, router.PolicyBalanced)
	cfg.MaxInjection = true
	cfg.InjectionRate = 0
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(3000) // panics on watchdog failure
}

// The interleaved VC partition runs end-to-end and still shows the VIX
// throughput gain.
func TestInterleavedPartitionEndToEnd(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	cfg := meshConfig(topo, alloc.KindSeparableIF, 2, router.PolicyBalanced)
	cfg.Router.Partition = alloc.Interleaved
	cfg.MaxInjection = true
	cfg.InjectionRate = 0
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Warmup(800)
	s := n.Measure(2000)
	if s.ThroughputFlits < 0.3 {
		t.Fatalf("interleaved VIX throughput %.4f suspiciously low", s.ThroughputFlits)
	}
}

// Oldest-first (age-aware) allocation must improve the latency tail
// relative to plain rotating arbitration at identical load: p99 and max
// latency shrink, average stays comparable.
func TestAgeAllocationImprovesTail(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	run := func(kind alloc.Kind) (avg float64, p99, max int64) {
		cfg := meshConfig(topo, kind, 1, router.PolicyMaxFree)
		cfg.InjectionRate = 0.085 // near saturation, where queueing tails form
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Warmup(1500)
		s := n.Measure(5000)
		return s.AvgLatency, s.P99Latency, s.MaxLatency
	}
	avgIF, p99IF, maxIF := run(alloc.KindSeparableIF)
	avgAge, p99Age, maxAge := run(alloc.KindSeparableAge)
	if p99Age >= p99IF && maxAge >= maxIF {
		t.Fatalf("age allocation did not improve the tail: p99 %d->%d, max %d->%d",
			p99IF, p99Age, maxIF, maxAge)
	}
	if avgAge > 1.15*avgIF {
		t.Fatalf("age allocation hurt average latency: %.2f vs %.2f", avgAge, avgIF)
	}
}

// FuzzNetwork drains a 300-cycle burst over a legal configuration under
// the checker, and every generated packet must be delivered. The bytes
// pick the topology kind and size, VCs, virtual inputs, allocator (ideal
// takes k = VCs, sparoflo k = 1), partition, VA policy, speculation,
// buffer depth, load, packet size and hop delay (0: the default). The
// seeds cycle through every allocator kind and topology kind and draw
// the rest from a fixed RNG.
func FuzzNetwork(f *testing.F) {
	rng := sim.NewRNG(777)
	for i := 0; i < 32; i++ {
		f.Add(uint8(i/8), uint8(rng.Intn(3)), uint8(rng.Intn(3)), uint8(rng.Intn(3)), uint8(rng.Intn(5)), uint8(rng.Intn(2)),
			uint8(i), uint8(rng.Intn(2)), uint8(rng.Intn(3)), rng.Intn(2) == 0,
			uint8(rng.Intn(6)), uint8(rng.Intn(256)), uint8(rng.Intn(6)), uint8(rng.Intn(6)), rng.Uint64())
	}
	kinds := alloc.Kinds()
	policies := []router.PolicyKind{router.PolicyMaxFree, router.PolicyDimension, router.PolicyBalanced}
	f.Fuzz(func(t *testing.T, topoKind, w, h, conc, vcs, k, kind, part, policy uint8, nonSpec bool,
		depth, rate, size, hopDelay uint8, seed uint64) {
		width, height, c := 2+int(w%4), 2+int(h%4), 1+int(conc%3)
		var topo *topology.Topology
		switch topoKind % 4 {
		case 0:
			topo = topology.NewMesh(width, height)
		case 1:
			topo = topology.NewCMesh(width, height, c)
		case 2:
			topo = topology.NewFBfly(width, height, c)
		default:
			topo = topology.NewTorus(width, height)
		}
		rc := router.Config{
			Ports: topo.Radix, VCs: 2 + int(vcs%5), BufDepth: 1 + int(depth%8),
			AllocKind: kinds[int(kind)%len(kinds)], Partition: alloc.Partition(part % 2),
			Policy: policies[policy%3], NonSpeculative: nonSpec,
		}
		rc.VirtualInputs = 1 + int(k)%rc.VCs
		switch rc.AllocKind {
		case alloc.KindIdeal:
			rc.VirtualInputs = rc.VCs
		case alloc.KindSparoflo:
			rc.VirtualInputs = 1
		}
		wl := &burstWorkload{until: 300, rate: 0.01 + float64(rate)/2550, pattern: traffic.NewUniform(topo.NumNodes), size: 1 + int(size%8)}
		ch := newChecked(t, Config{Topology: topo, Router: rc, Workload: wl, HopDelay: int(hopDelay % 6), Seed: seed})
		if err := ch.run(300, false); err != nil {
			t.Fatal(err)
		}
		if err := ch.drain(30000); err != nil {
			t.Fatal(err)
		}
		if wl.delivered != wl.generated {
			t.Fatalf("generated %d packets, delivered %d", wl.generated, wl.delivered)
		}
	})
}

// Concentrated topologies eject through multiple local ports: one CMesh
// router can deliver up to conc flits per cycle (one per local port),
// while a single local port never exceeds one flit per cycle.
func TestConcentratedEjectionBandwidth(t *testing.T) {
	topo := topology.NewCMesh(2, 2, 4)
	perCycle := map[int64]map[int]int{} // cycle -> node -> flits
	cfg := meshConfig(topo, alloc.KindSeparableIF, 2, router.PolicyBalanced)
	cfg.MaxInjection = true
	cfg.InjectionRate = 0
	var n *Network
	cfg.OnEject = func(f *router.Flit) {
		c := n.Cycle()
		if perCycle[c] == nil {
			perCycle[c] = map[int]int{}
		}
		perCycle[c][f.Dst]++
	}
	var err error
	n, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(2000)

	maxPerRouter := 0
	for _, nodes := range perCycle {
		perRouter := map[int]int{}
		for node, count := range nodes {
			if count > 1 {
				t.Fatalf("node %d received %d flits in one cycle", node, count)
			}
			perRouter[topo.NodeRouter[node]] += count
		}
		for _, c := range perRouter {
			if c > maxPerRouter {
				maxPerRouter = c
			}
		}
	}
	if maxPerRouter > topo.Conc {
		t.Fatalf("router ejected %d flits in one cycle, conc is %d", maxPerRouter, topo.Conc)
	}
	if maxPerRouter < 2 {
		t.Fatalf("saturated CMesh never used parallel ejection (max %d/cycle)", maxPerRouter)
	}
}
