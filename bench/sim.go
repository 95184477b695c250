package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"time"

	"vix/internal/alloc"
	"vix/internal/network"
	"vix/internal/router"
	"vix/internal/stats"
	"vix/internal/topology"
	"vix/internal/traffic"
)

// Router geometry shared by every workload: the paper's 6 VCs of 5 flits
// and 4-flit packets.
const (
	benchVCs        = 6
	benchBufDepth   = 5
	benchPacketSize = 4
)

// simSpec describes one batch simulation workload: one network, one
// warm-up, then consecutive measurement windows of a fixed cycle count,
// stepped serially.
type simSpec struct {
	topo      topology.Kind // mesh or fbfly
	w, h      int
	conc      int
	allocKind alloc.Kind
	k         int
	policy    router.PolicyKind
	rate      float64 // packets/node/cycle; 0 selects MaxInjection
	warmup    int
	window    int
	// paperGap adds a k=1 PolicyMaxFree run and reports the VIX gain next
	// to the paper's +16.2 %.
	paperGap bool
	// sharded adds a Workers: 2 run of the same cycles to the traced run.
	sharded bool
}

func (s simSpec) topology() *topology.Topology {
	if s.topo == topology.KindFBfly {
		return topology.NewFBfly(s.w, s.h, s.conc)
	}
	return topology.NewMesh(s.w, s.h)
}

func (s simSpec) routerConfig(topo *topology.Topology) router.Config {
	return router.Config{
		Ports: topo.Radix, VCs: benchVCs, VirtualInputs: s.k, BufDepth: benchBufDepth,
		AllocKind: s.allocKind, Policy: s.policy,
	}
}

// scaled divides the cycle counts by div (tests run at 1/100).
func (s simSpec) scaled(div int) simSpec {
	s.warmup = max(s.warmup/div, 10)
	s.window = max(s.window/div, 10)
	return s
}

// passOpts selects how one pass over a simSpec runs.
type passOpts struct {
	windows      int
	setupRepeats int  // set-ups timed before the measured network (>= 1)
	traced       bool // wrap allocator and pattern, clock each Step, check ejections
	workers      int
	rec          *spanRecorder
	profile      func() (stop func(), err error) // brackets the windows; nil: none
}

// windowResult is one measurement window.
type windowResult struct {
	wallNS int64 // Run + Snapshot
	snapNS int64
	snap   stats.Snapshot
	hash   [sha256.Size]byte
	failed string // first failed check, "" when the window is good
}

// passResult is everything one pass measured.
type passResult struct {
	setupNS   []int64 // network.New + warm-up, once per set-up
	newNS     []int64
	windows   []windowResult
	cycles    int64 // over all windows
	nodes     int
	routers   int
	ticks     int64 // Router.Tick calls over all windows
	mallocs   uint64
	bytes     uint64
	gcCycles  uint32
	heapBytes uint64

	// traced passes only
	allocs      []*tracedAlloc
	destCalls   int64
	stepHist    histogram
	inflightSum float64
	queuedSum   float64
	samples     int
}

// digest is the SHA-256 over every window's Snapshot: a change that only
// makes the simulator faster must leave it untouched.
func (p *passResult) digest() string {
	h := sha256.New()
	for _, w := range p.windows {
		h.Write(w.hash[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (p *passResult) windowWallMS() []float64 {
	out := make([]float64, len(p.windows))
	for i, w := range p.windows {
		out[i] = float64(w.wallNS) / 1e6
	}
	return out
}

// build assembles the network configuration of one pass.
func (s simSpec) build(seed uint64, o passOpts, pat *tracedPattern, ej *ejectChecker) network.Config {
	topo := s.topology()
	cfg := network.Config{
		Topology:      topo,
		Router:        s.routerConfig(topo),
		Pattern:       traffic.NewUniform(topo.NumNodes),
		InjectionRate: s.rate,
		MaxInjection:  s.rate == 0,
		PacketSize:    benchPacketSize,
		Seed:          seed,
		Workers:       o.workers,
	}
	if o.traced {
		cfg.Router.AllocKind = tracedKind(s.allocKind)
		pat.inner = cfg.Pattern
		cfg.Pattern = pat
		cfg.OnEject = ej.onEject
	}
	return cfg
}

// minSetups is how often an untraced run sets up at least; setup_s is the
// median.
const minSetups = 3

// moreSetups decides whether to set up again: at least repeats times, and
// while a cheap set-up has been timed for under half a second in all (at
// most 500 times), so that a sub-millisecond set-up reports a median as
// steady as a second-long one.
func moreSetups(done int, spentNS int64, repeats int) bool {
	return done < repeats || (repeats > 1 && done < 500 && spentNS < 5e8)
}

// runPass builds the network (several times, keeping the last: see
// moreSetups), warms it up and runs the windows. Every network it builds
// is closed.
func runPass(ctx context.Context, s simSpec, seed uint64, o passOpts) (*passResult, error) {
	res := &passResult{}
	var n *network.Network
	var pat *tracedPattern
	var ej *ejectChecker
	for spent := int64(0); moreSetups(len(res.setupNS), spent, o.setupRepeats); spent += res.setupNS[len(res.setupNS)-1] {
		if n != nil {
			n.Close()
		}
		pat, ej = &tracedPattern{}, newEjectChecker()
		drainTracedAllocs()
		setup := o.rec.begin("setup", "", 0)
		start := time.Now()
		sp := o.rec.begin("network.New", "", setup)
		cfg := s.build(seed, o, pat, ej)
		res.nodes, res.routers = cfg.Topology.NumNodes, cfg.Topology.NumRouters
		var err error
		n, err = network.New(cfg)
		o.rec.end(sp)
		if err != nil {
			return nil, err
		}
		res.newNS = append(res.newNS, int64(time.Since(start)))
		res.allocs = drainTracedAllocs()
		sp = o.rec.begin("warmup", "", setup)
		for c := 0; c < s.warmup; c++ {
			stepChecked(n, res.allocs)
		}
		o.rec.end(sp)
		res.setupNS = append(res.setupNS, int64(time.Since(start)))
		o.rec.end(setup)
	}
	defer n.Close()
	// The layer counters cover the windows only; the conservation check
	// keeps counting from cycle 0.
	for _, t := range res.allocs {
		t.resetCounts()
	}
	warmDestCalls := pat.calls

	col := n.Collector()
	warm := col.Snapshot()
	col.Reset()
	// Latency samples are measurement bookkeeping; sizing their array
	// from the warm-up rate keeps its growth out of the allocation
	// counters, which are there to read the simulator. The next power of
	// two keeps the size, and so live_heap_mb, the same from seed to seed.
	perWindow := float64(warm.PacketsEjected) / float64(s.warmup) * float64(s.window)
	col.Reserve(1 << bits.Len(uint(perWindow*1.25)+1024))

	cumInjected, cumEjected := warm.FlitsInjected, warm.FlitsEjected
	slack := int64(res.nodes * (benchPacketSize - 1))
	sampleEvery := min(1000, s.window)
	disorder := ej.disorder

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ticks0 := n.RouterTicks()
	if o.profile != nil {
		stop, err := o.profile()
		if err != nil {
			return nil, err
		}
		defer stop()
	}
	for i := 0; i < o.windows; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var w windowResult
		// check books the window's first failed check.
		check := func(ok bool, format string, args ...any) {
			if !ok && w.failed == "" {
				w.failed = fmt.Sprintf("window %d: ", i) + fmt.Sprintf(format, args...)
			}
		}
		wsp := o.rec.begin(fmt.Sprintf("window[%d]", i), "", 0)
		start := time.Now()
		if !o.traced {
			n.Run(s.window)
		} else {
			for c := 1; c <= s.window; c++ {
				t := time.Now()
				n.Step()
				res.stepHist.add(int64(time.Since(t)))
				for _, a := range res.allocs {
					a.validate()
				}
				if c%sampleEvery != 0 && c != s.window {
					continue
				}
				// Conservation: every generated flit is queued at its
				// source, inside the network, or has left.
				inflight, queued := n.InFlight(), n.QueuedAtSources()
				res.inflightSum += float64(inflight)
				res.queuedSum += float64(queued)
				res.samples++
				gen := pat.calls * benchPacketSize
				check(ej.flits+inflight+queued == gen, "cycle %d: %d flits ejected + %d in flight + %d queued != %d generated",
					n.Cycle(), ej.flits, inflight, queued, gen)
			}
		}
		ssp := o.rec.begin("snapshot", "", wsp)
		st := time.Now()
		w.snap = col.Snapshot()
		end := time.Now()
		o.rec.end(ssp)
		o.rec.end(wsp)
		w.snapNS = int64(end.Sub(st))
		w.wallNS = int64(end.Sub(start))
		col.Reset()
		w.hash = sha256.Sum256([]byte(fmt.Sprintf("%+v", w.snap)))

		// Head injection books the whole packet, so booked minus ejected
		// minus in flight is the part of half-injected packets still at
		// their sources: never negative, under one packet per node.
		cumInjected += w.snap.FlitsInjected
		cumEjected += w.snap.FlitsEjected
		d := cumInjected - cumEjected - n.InFlight()
		check(d >= 0 && d <= slack, "%d flits booked - %d ejected - %d in flight = %d, outside [0, %d]",
			cumInjected, cumEjected, n.InFlight(), d, slack)
		check(w.snap.PacketsEjected > 0, "no packet ejected in %d cycles", s.window)
		check(ej.disorder == disorder, "%d flits left out of order (%s)", ej.disorder-disorder, ej.first)
		disorder = ej.disorder
		for _, a := range res.allocs {
			check(a.invalidCalls == 0, "illegal allocation: %v", a.invalid)
			a.invalidCalls = 0
		}
		res.windows = append(res.windows, w)
		res.cycles += int64(s.window)
	}
	runtime.ReadMemStats(&m1)
	res.ticks = n.RouterTicks() - ticks0
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.bytes = m1.TotalAlloc - m0.TotalAlloc
	res.gcCycles = m1.NumGC - m0.NumGC
	res.destCalls = pat.calls - warmDestCalls

	res.heapBytes = liveHeap()
	runtime.KeepAlive(n)
	return res, nil
}

// liveHeap is HeapAlloc after two collections: the second empties the
// sync.Pool victim caches the first one filled, which would otherwise make
// the figure depend on when the last automatic collection happened.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// simTotals folds the windows of a pass into the simulated results.
func simTotals(p *passResult) (throughput, latency float64, packets int64) {
	var flits int64
	var latSum float64
	for _, w := range p.windows {
		flits += w.snap.FlitsEjected
		packets += w.snap.PacketsEjected
		latSum += w.snap.AvgLatency * float64(w.snap.PacketsEjected)
	}
	throughput = float64(flits) / (float64(p.cycles) * float64(p.nodes))
	if packets > 0 {
		latency = latSum / float64(packets)
	}
	return throughput, latency, packets
}

// runSimEndToEnd is the untraced run of a simulation workload.
func runSimEndToEnd(ctx context.Context, s simSpec, seed uint64, r *report, o runOpts) (digest string, err error) {
	p, err := runPass(ctx, s, seed, passOpts{windows: o.windows, setupRepeats: minSetups, workers: 1, profile: o.profile})
	if err != nil {
		return "", err
	}
	r.addPass(p)

	var setup []float64
	for _, ns := range p.setupNS {
		setup = append(setup, float64(ns)/1e9)
	}
	thr, lat, _ := simTotals(p)
	op := summarize(p.windowWallMS(), "ms")
	r.Metrics["setup_s"] = summarize(setup, "s")
	r.Metrics["op_p50_ms"] = op
	r.Metrics["live_heap_mb"] = exact(float64(p.heapBytes)/(1<<20), "MB")
	r.Metrics["sim_throughput_flits_node_cycle"] = exact(thr, "flits/node/cyc")
	r.Metrics["sim_latency_cycles_mean"] = exact(lat, "cyc")
	// The same number as op_p50_ms, in the unit simulator speed is quoted in.
	r.Extra["sim_cycles_per_s"] = exact(float64(s.window)/(op.Value/1e3), "cyc/s")
	if s.paperGap {
		if err := paperGap(ctx, s, seed, p, r); err != nil {
			return "", err
		}
	}
	return p.digest(), nil
}

// runSimTraced is the traced run of a simulation workload.
func runSimTraced(ctx context.Context, s simSpec, seed uint64, r *report, o runOpts) (digest string, err error) {
	plain, err := kernelLayers(ctx, s, seed, r, o)
	if err != nil {
		return "", err
	}
	if s.sharded {
		if err := shardedSpeedup(ctx, s, seed, plain, r, o); err != nil {
			return "", err
		}
	}
	// The contract has every traced run print every per-layer row. A
	// simulation never enters config, harness or store, so those rows
	// come from the solo probes.
	return plain.digest(), serviceLayers(seed, r, o)
}

// kernelLayers runs s untraced and traced on the same seed and window
// count and fills the kernel's per-layer metrics. The untraced pass, which
// it returns, gives the host times, the traced pass the counts and the
// allocator's clock, and their ratio is the cost of tracing.
func kernelLayers(ctx context.Context, s simSpec, seed uint64, r *report, o runOpts) (*passResult, error) {
	plain, err := runPass(ctx, s, seed, passOpts{windows: o.windows, setupRepeats: 1, workers: 1, profile: o.profile})
	if err != nil {
		return nil, err
	}
	traced, err := runPass(ctx, s, seed, passOpts{windows: o.windows, setupRepeats: 1, workers: 1, traced: true, rec: r.spans})
	if err != nil {
		return nil, err
	}
	r.addPass(plain)
	r.addPass(traced)
	// Tracing must not change what is simulated.
	for i := range plain.windows {
		if plain.windows[i].hash != traced.windows[i].hash {
			r.fail(fmt.Sprintf("window %d: traced and untraced snapshots differ", i))
		}
	}

	clock := clockNS()
	cycles := float64(plain.cycles)
	var stepNS, snapMS []float64
	for _, w := range plain.windows {
		stepNS = append(stepNS, float64(w.wallNS-w.snapNS)/float64(s.window))
		snapMS = append(snapMS, float64(w.snapNS)/1e6)
	}
	step := median(stepNS)
	ticksPerCycle := float64(plain.ticks) / cycles
	_, _, packets := simTotals(plain)

	var calls, empty, requests, grants int64
	var allocHist histogram
	for _, t := range traced.allocs {
		calls += t.calls
		empty += t.empty
		requests += t.requests
		grants += t.grants
		allocHist.merge(&t.hist)
	}
	r.Hists["alloc.Allocate"] = allocHist
	r.Hists["network.Step(traced)"] = traced.stepHist
	allocNS := max(float64(allocHist.TotalNS)/float64(calls)-clock, 0)
	allocPerCycle := allocNS * float64(calls) / cycles
	destPerCycle := float64(traced.destCalls) / cycles

	topo := s.topology()
	bern := soloBernoulliNS(seed, s.rate, o.div)
	dest := soloDestNS(seed, topo.NumNodes, o.div)
	soloTick, soloFlits := soloRouter(s.routerConfig(topo), seed, o.div)
	idle, err := soloIdleStepNS(s, seed, o.div)
	if err != nil {
		return nil, err
	}

	m := r.Metrics
	m["sim.bernoulli_ns"] = exact(bern, "ns")
	m["traffic.dest_calls_per_cycle"] = exact(destPerCycle, "count")
	m["traffic.dest_ns_per_call"] = exact(dest, "ns")
	m["alloc.calls_per_cycle"] = exact(float64(calls)/cycles, "count")
	m["alloc.empty_call_share"] = exact(ratio(float64(empty), float64(calls)), "ratio")
	m["alloc.requests_per_call"] = exact(ratio(float64(requests), float64(calls)), "count")
	m["alloc.grants_per_call"] = exact(ratio(float64(grants), float64(calls)), "count")
	m["alloc.grant_ratio"] = exact(ratio(float64(grants), float64(requests)), "ratio")
	m["alloc.ns_per_call"] = exact(allocNS, "ns")
	m["alloc.host_share"] = exact(allocPerCycle/step, "ratio")
	m["router.solo_tick_ns"] = exact(soloTick, "ns")
	m["router.solo_flits_per_tick"] = exact(soloFlits, "count")
	m["router.est_host_share"] = exact(soloTick*ticksPerCycle/step, "ratio")
	m["network.new_ms"] = exact(float64(plain.newNS[0])/1e6, "ms")
	m["network.step_ns"] = summarize(stepNS, "ns")
	m["network.router_ticks_per_cycle"] = exact(ticksPerCycle, "count")
	m["network.active_router_share"] = exact(ticksPerCycle/float64(plain.routers), "ratio")
	m["network.ns_per_router_tick"] = exact(ratio(step, ticksPerCycle), "ns")
	m["network.idle_step_ns"] = exact(idle, "ns")
	m["network.self_ns_per_cycle"] = exact(step-allocPerCycle-destPerCycle*dest, "ns")
	m["network.inflight_flits_mean"] = exact(traced.inflightSum/float64(traced.samples), "count")
	m["network.source_queue_pkts"] = exact(traced.queuedSum/float64(traced.samples)/benchPacketSize, "count")
	m["network.mallocs_per_cycle"] = exact(float64(plain.mallocs)/cycles, "count")
	m["network.alloc_bytes_per_cycle"] = exact(float64(plain.bytes)/cycles, "B")
	m["network.gc_cycles"] = exact(float64(plain.gcCycles), "count")
	m["stats.snapshot_ms"] = summarize(snapMS, "ms")
	m["stats.latency_samples"] = exact(float64(packets), "count")
	m["trace.clock_ns"] = exact(clock, "ns")
	m["trace.overhead_pct"] = exact((median(traced.windowWallMS())/median(plain.windowWallMS())-1)*100, "%")
	return plain, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// paperGap reruns the first window's cycles with the conventional
// crossbar (k=1, PolicyMaxFree), one more operation, and reports the
// saturation-throughput gain of VIX beside the paper's +16.2 %. The gain
// must be positive. No reference hardware result exists, so beyond this
// gap the model is unvalidated.
func paperGap(ctx context.Context, s simSpec, seed uint64, vix *passResult, r *report) error {
	base := s
	base.k, base.policy = 1, router.PolicyMaxFree
	p, err := runPass(ctx, base, seed, passOpts{windows: 1, setupRepeats: 1, workers: 1})
	if err != nil {
		return err
	}
	r.addPass(p)
	gain := (vix.windows[0].snap.ThroughputFlits/p.windows[0].snap.ThroughputFlits - 1) * 100
	r.Extra["paper.vix_gain_pct"] = exact(gain, "%")
	r.Extra["paper.vix_gain_gap_pct"] = exact(math.Abs(gain-16.2), "%")
	if gain <= 0 {
		r.fail(fmt.Sprintf("VIX (k=2) gains %.2f%% over k=1 at saturation; the paper's effect is gone", gain))
	}
	return nil
}

// shardedSpeedup reruns the untraced cycles at Workers: 2. The sharded
// tick must simulate exactly what the serial one does; its speed is
// recorded so a sharded-tick change has a base to start from.
func shardedSpeedup(ctx context.Context, s simSpec, seed uint64, serial *passResult, r *report, o runOpts) error {
	p, err := runPass(ctx, s, seed, passOpts{windows: o.windows, setupRepeats: 1, workers: 2})
	if err != nil {
		return err
	}
	if p.digest() != serial.digest() {
		r.fail("Workers: 2 and serial stats digests differ")
	}
	r.Extra["network.sharded_speedup_w2"] = exact(median(serial.windowWallMS())/median(p.windowWallMS()), "x")
	return nil
}
