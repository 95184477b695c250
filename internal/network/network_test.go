package network

import (
	"math"
	"testing"

	"vix/internal/alloc"
	"vix/internal/router"
	"vix/internal/routing"
	"vix/internal/sim"
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

// Every injected packet must be delivered, the network must drain to
// empty, holding no packet record, and all credits must return to their
// initial values — on all three paper topologies.
func TestConservationAndDrain(t *testing.T) {
	topos := []*topology.Topology{
		topology.NewMesh(4, 4),
		topology.NewCMesh(2, 2, 4),
		topology.NewFBfly(2, 2, 4),
	}
	for _, topo := range topos {
		for _, k := range []int{1, 2} {
			w := &burstWorkload{until: 500, rate: 0.08, pattern: traffic.NewUniform(topo.NumNodes), size: 4}
			cfg := meshConfig(topo, alloc.KindSeparableIF, k, router.PolicyBalanced)
			cfg.Workload = w
			n, err := New(cfg)
			if err != nil {
				t.Fatalf("%s k=%d: %v", topo.Name, k, err)
			}
			n.Run(500)
			for i := 0; i < 20000 && (n.InFlight() > 0 || n.QueuedAtSources() > 0); i++ {
				n.Step()
			}
			if n.InFlight() != 0 || n.QueuedAtSources() != 0 {
				t.Fatalf("%s k=%d: network did not drain: inflight=%d queued=%d",
					topo.Name, k, n.InFlight(), n.QueuedAtSources())
			}
			if w.delivered != w.generated {
				t.Fatalf("%s k=%d: generated %d packets, delivered %d",
					topo.Name, k, w.generated, w.delivered)
			}
			if live := n.flits.Live(); live != 0 {
				t.Fatalf("%s k=%d: %d packet records live on a drained network", topo.Name, k, live)
			}
			// All credits restored and all buffers empty.
			for _, rt := range n.Routers() {
				if rt.Occupancy() != 0 {
					t.Fatalf("%s k=%d: router %d still holds flits", topo.Name, k, rt.ID())
				}
				for p := 0; p < topo.Radix; p++ {
					if topo.Conn[rt.ID()][p].Kind != topology.Link {
						continue
					}
					for v := 0; v < 6; v++ {
						if got := rt.Credits(p, v); got != 5 {
							t.Fatalf("%s k=%d: router %d port %d vc %d credits %d, want 5",
								topo.Name, k, rt.ID(), p, v, got)
						}
					}
				}
			}
		}
	}
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

// Flits of each packet must eject in sequence order (wormhole integrity),
// even under heavy congested traffic with VIX enabled.
func TestFlitOrderingUnderLoad(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	cfg := meshConfig(topo, alloc.KindSeparableIF, 2, router.PolicyBalanced)
	cfg.MaxInjection = true
	cfg.InjectionRate = 0
	lastSeq := map[uint64]int{}
	cfg.OnEject = func(f *router.Flit) {
		if prev, ok := lastSeq[f.PacketID]; ok && f.Seq != prev+1 {
			t.Fatalf("packet %d flit %d ejected after %d", f.PacketID, f.Seq, prev)
		}
		lastSeq[f.PacketID] = f.Seq
		if f.Type.IsTail() {
			if f.Seq != f.PacketSize-1 {
				t.Fatalf("packet %d tail has seq %d of %d", f.PacketID, f.Seq, f.PacketSize)
			}
			delete(lastSeq, f.PacketID)
		}
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(3000)
	s := n.Collector().Snapshot()
	if s.FlitsEjected == 0 {
		t.Fatal("no traffic flowed")
	}
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
		r, hops = c.PeerRouter, hops+1
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

// A flit's record is cold from inject to eject: its hop state rides in
// buffer slots and link events and is written back at ejection. On all
// three routing functions, under saturation, every record OnEject sees
// must carry its DOR path length, the local port it left through, and its
// packet's head-to-tail order.
func TestEjectedRecordsCarryHopStateAndOrder(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.NewMesh(4, 4),
		topology.NewTorus(5, 5),
		topology.NewFBfly(4, 4, 2),
	} {
		t.Run(topo.Name, func(t *testing.T) {
			cfg := meshConfig(topo, alloc.KindSeparableIF, 2, router.PolicyBalanced)
			cfg.MaxInjection = true
			cfg.InjectionRate = 0
			tab := routing.Compile(topo)
			next := map[uint64]int{} // packet -> flits already ejected
			ejected := 0
			cfg.OnEject = func(f *router.Flit) {
				ejected++
				if want := dorHops(topo, tab, f.Src, f.Dst); f.Hops != want {
					t.Fatalf("flit %d.%d from %d to %d ejected with %d hops, DOR path has %d",
						f.PacketID, f.Seq, f.Src, f.Dst, f.Hops, want)
				}
				if f.Route != topo.NodePort[f.Dst] || f.VC != 0 {
					t.Fatalf("flit %d.%d ejected with route %d vc %d, want local port %d vc 0",
						f.PacketID, f.Seq, f.Route, f.VC, topo.NodePort[f.Dst])
				}
				seq := next[f.PacketID]
				if f.Seq != seq || f.Type != router.PacketFlitType(seq, f.PacketSize) {
					t.Fatalf("packet %d: flit %d (%v) ejected where flit %d belongs", f.PacketID, f.Seq, f.Type, seq)
				}
				if next[f.PacketID]++; f.Type.IsTail() {
					delete(next, f.PacketID)
				}
			}
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n.Run(3000)
			for _, rt := range n.Routers() {
				rt.Occupancy() // every buffered slot still agrees with its record
			}
			if ejected == 0 {
				t.Fatal("no traffic flowed")
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
	}
	for i, mutate := range cases {
		cfg := meshConfig(topo, alloc.KindSeparableIF, 1, router.PolicyMaxFree)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// Slots and link events name nodes and routers in int32 fields and count
// hops in an int16; Validate rejects a topology that would overflow them.
// The topologies are descriptions only: Validate reads no wiring.
func TestConfigValidationNarrowFieldBounds(t *testing.T) {
	tooMany := math.MaxInt32
	tooMany++ // at run time: the constant would not compile where int is 32 bits
	grid := func(kind topology.Kind, w, h int) *topology.Topology {
		return &topology.Topology{Kind: kind, W: w, H: h, Conc: 1, NumRouters: w * h, NumNodes: w * h, Radix: 5}
	}
	for _, tc := range []struct {
		name string
		topo *topology.Topology
		ok   bool
	}{
		{"mesh diameter 32767", grid(topology.KindMesh, math.MaxInt16+1, 1), true},
		{"mesh diameter 32768", grid(topology.KindMesh, math.MaxInt16+2, 1), false},
		{"mesh diameter 32768 over two dimensions", grid(topology.KindMesh, 1<<14+1, 1<<14+1), false},
		{"torus diameter 32767", grid(topology.KindTorus, 2*math.MaxInt16+1, 1), true},
		{"torus diameter 32768", grid(topology.KindTorus, 2*math.MaxInt16+2, 1), false},
		{"fbfly diameter 2", grid(topology.KindFBfly, 1<<15, 1<<15), true},
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

// Property: conservation holds for arbitrary legal configurations —
// random topology sizes, VC counts, virtual inputs, buffer depths,
// allocators, packet sizes, and loads. Every generated packet is
// delivered and the network drains clean.
func TestConservationProperty(t *testing.T) {
	rng := sim.NewRNG(777)
	kinds := []alloc.Kind{
		alloc.KindSeparableIF, alloc.KindWavefront, alloc.KindAugmentingPath,
		alloc.KindPacketChaining, alloc.KindISLIP, alloc.KindSeparableAge,
	}
	for trial := 0; trial < 25; trial++ {
		w := 2 + rng.Intn(3)
		h := 2 + rng.Intn(3)
		var topo *topology.Topology
		switch rng.Intn(3) {
		case 0:
			topo = topology.NewMesh(w, h)
		case 1:
			topo = topology.NewCMesh(w, h, 1+rng.Intn(3))
		default:
			topo = topology.NewFBfly(w, h, 1+rng.Intn(3))
		}
		vcs := 2 + rng.Intn(5)
		k := 1 + rng.Intn(2)
		if k > vcs {
			k = vcs
		}
		kind := kinds[rng.Intn(len(kinds))]
		part := alloc.Partition(rng.Intn(2))
		policy := []router.PolicyKind{router.PolicyMaxFree, router.PolicyDimension, router.PolicyBalanced}[rng.Intn(3)]
		wl := &burstWorkload{
			until:   300,
			rate:    0.02 + 0.06*rng.Float64(),
			pattern: traffic.NewUniform(topo.NumNodes),
			size:    1 + rng.Intn(6),
		}
		cfg := Config{
			Topology: topo,
			Router: router.Config{
				Ports: topo.Radix, VCs: vcs, VirtualInputs: k,
				BufDepth: 2 + rng.Intn(6), AllocKind: kind, Policy: policy,
				Partition:      part,
				NonSpeculative: rng.Intn(2) == 0,
			},
			Workload: wl,
			Seed:     rng.Uint64(),
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatalf("trial %d (%s on %s): %v", trial, kind, topo.Name, err)
		}
		n.Run(300)
		for i := 0; i < 30000 && (n.InFlight() > 0 || n.QueuedAtSources() > 0); i++ {
			n.Step()
		}
		if n.InFlight() != 0 || n.QueuedAtSources() != 0 {
			t.Fatalf("trial %d (%s, %s, vcs=%d k=%d): stuck with %d in flight",
				trial, kind, topo.Name, vcs, k, n.InFlight())
		}
		if wl.delivered != wl.generated {
			t.Fatalf("trial %d (%s, %s): generated %d, delivered %d",
				trial, kind, topo.Name, wl.generated, wl.delivered)
		}
	}
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

// TestActivityIdentitiesOnADrainedRun checks the four datapath counters
// Fig 11's energy model rests on against what the flits themselves
// record, over a 500-cycle burst at 0.08 that then drains completely.
// Every hop a flit makes crosses one link, so LinkTraversals = Σ Hops.
// Every flit is written into a buffer once at its source router and once
// per hop, read out and switched once per router it leaves — the ejecting
// one included — so XbarTraversals, BufferReads and BufferWrites each
// equal flits + Σ Hops. tickRouter adds to BufferReads and XbarTraversals
// in one place, from one count, so of the two read-side counters only
// one is an independent check; BufferWrites is counted where flits land.
func TestActivityIdentitiesOnADrainedRun(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.NewMesh(4, 4),
		topology.NewCMesh(2, 2, 4),
		topology.NewFBfly(2, 2, 4),
		topology.NewTorus(4, 4),
	} {
		for _, k := range []int{1, 2} {
			cfg := meshConfig(topo, alloc.KindSeparableIF, k, router.PolicyBalanced)
			cfg.Workload = &burstWorkload{until: 500, rate: 0.08, pattern: traffic.NewUniform(topo.NumNodes), size: 4}
			var flits, hops int64
			cfg.OnEject = func(f *router.Flit) {
				flits++
				hops += int64(f.Hops)
			}
			n, err := New(cfg)
			if err != nil {
				t.Fatalf("%s k=%d: %v", topo.Name, k, err)
			}
			n.Run(500)
			for i := 0; i < 20000 && (n.InFlight() > 0 || n.QueuedAtSources() > 0); i++ {
				n.Step()
			}
			if n.InFlight() != 0 || n.QueuedAtSources() != 0 {
				t.Fatalf("%s k=%d: network did not drain", topo.Name, k)
			}
			s := n.Collector().Snapshot()
			if flits == 0 || flits != s.FlitsEjected {
				t.Fatalf("%s k=%d: observed %d ejected flits, the collector %d", topo.Name, k, flits, s.FlitsEjected)
			}
			if s.LinkTraversals != hops {
				t.Errorf("%s k=%d: LinkTraversals = %d, want Σ hops = %d", topo.Name, k, s.LinkTraversals, hops)
			}
			want := flits + hops
			for _, c := range []struct {
				name string
				got  int64
			}{{"XbarTraversals", s.XbarTraversals}, {"BufferReads", s.BufferReads}, {"BufferWrites", s.BufferWrites}} {
				if c.got != want {
					t.Errorf("%s k=%d: %s = %d, want flits + Σ hops = %d + %d", topo.Name, k, c.name, c.got, flits, hops)
				}
			}
			n.Close()
		}
	}
}

// TestLittlesLawOnADrainedRun checks Little's law in its sample-path
// form over the burst TestActivityIdentitiesOnADrainedRun drains: a flit
// waiting in a source queue or in the network at the end of a cycle is
// one flit-cycle of latency, so summed over every cycle the occupancy
// equals Σ (EjectCycle − CreateCycle) over the flits ejected. The law is
// exact, not statistical; a flit lost or counted twice, or a latency
// timestamp off by a cycle, breaks it.
func TestLittlesLawOnADrainedRun(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.NewMesh(4, 4),
		topology.NewCMesh(2, 2, 4),
		topology.NewFBfly(2, 2, 4),
		topology.NewTorus(4, 4),
	} {
		for _, k := range []int{1, 2} {
			cfg := meshConfig(topo, alloc.KindSeparableIF, k, router.PolicyBalanced)
			cfg.Workload = &burstWorkload{until: 500, rate: 0.08, pattern: traffic.NewUniform(topo.NumNodes), size: 4}
			var latency int64
			cfg.OnEject = func(f *router.Flit) { latency += f.EjectCycle - f.CreateCycle }
			n, err := New(cfg)
			if err != nil {
				t.Fatalf("%s k=%d: %v", topo.Name, k, err)
			}
			var occupancy int64
			step := func() {
				n.Step()
				occupancy += n.InFlight() + n.QueuedAtSources()
			}
			for i := 0; i < 500; i++ {
				step()
			}
			for i := 0; i < 20000 && (n.InFlight() > 0 || n.QueuedAtSources() > 0); i++ {
				step()
			}
			if n.InFlight() != 0 || n.QueuedAtSources() != 0 {
				t.Fatalf("%s k=%d: network did not drain", topo.Name, k)
			}
			if latency == 0 || occupancy != latency {
				t.Errorf("%s k=%d: Σ occupancy = %d flit-cycles, Σ latency = %d", topo.Name, k, occupancy, latency)
			}
			n.Close()
		}
	}
}
