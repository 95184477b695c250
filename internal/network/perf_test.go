package network

import (
	"fmt"
	"runtime"
	"testing"

	"vix/internal/alloc"
	"vix/internal/router"
	"vix/internal/topology"
)

// perfMesh builds the perf-suite network — the workload every Figure 8
// sweep spends its cycles in: an 8x8 VIX mesh, saturated when
// rate is 0 (MaxInjection) or at the given Bernoulli rate otherwise, with
// the requested worker count.
func perfMesh(tb testing.TB, workers int, rate float64) *Network {
	tb.Helper()
	topo := topology.NewMesh(8, 8)
	cfg := meshConfig(topo, alloc.KindSeparableIF, 2, router.PolicyBalanced)
	cfg.InjectionRate = rate
	cfg.MaxInjection = rate == 0
	cfg.Seed = 1
	cfg.Workers = workers
	n, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// assertZeroAllocSteps requires Network.Step on a warmed-up network to
// perform zero heap allocations — mallocs and bytes: malloc count alone
// would miss a regression that trades many small allocations for
// few-but-huge ones (slab churn). The run is fully deterministic (fixed
// seed), so this either always passes or always fails for a given code
// state.
func assertZeroAllocSteps(t *testing.T, n *Network) {
	t.Helper()
	n.Collector().Reset()
	if avg := testing.AllocsPerRun(200, func() { n.Step() }); avg != 0 {
		t.Fatalf("Network.Step allocates %v times per cycle in steady state; want 0", avg)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 200; i++ {
		n.Step()
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d != 0 {
		t.Fatalf("Network.Step allocated %d bytes over 200 steady-state cycles; want 0", d)
	}
}

// TestSteadyStateZeroAllocs pins the headline guarantee of the memory
// discipline work at saturation, where every router is on the worklist
// every cycle: on the fused walk and on the pooled one (the worklist
// rebuild reuses its backing array, worklist slots store Tick's slice
// headers, and the pool reuses parked workers, so no phase allocates).
func TestSteadyStateZeroAllocs(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d_sat", workers), func(t *testing.T) {
			n := perfMesh(t, workers, 0)
			defer n.Close()
			n.Run(8000)
			assertZeroAllocSteps(t, n)
		})
	}
}

// TestSteadyStateZeroAllocsLowLoad repeats the pin at 1% load, where most
// routers are idle most cycles, and at 0.1%, where the pooled schedule's
// worklist is usually shorter than the pool and often empty — skipping
// idle routers must not be paid for in per-cycle garbage.
//
// What the two kinds of cell do and do not show: at such loads the scratch
// buffers' high-water marks are set by rare coincidences (a third packet
// queued at one NI, a fourth flit landing in one wheel slot) that keep
// turning up for hundreds of thousands of cycles, so a network warmed up
// at the load under test still grows a buffer every few hundred cycles.
// The cold cells warm up honestly and can therefore only require under one
// malloc per cycle, which catches churn but not a rare allocation. The
// pregrown cells hold
// Step to exactly zero bytes, but only after a short overload has taken
// every buffer past anything a low load can ask for, which is then drained
// at the rate under test: they prove that a low-load cycle allocates
// nothing once the buffers are big enough, not that a cold low-load run
// never allocates.
func TestSteadyStateZeroAllocsLowLoad(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d_cold", workers), func(t *testing.T) {
			n := perfMesh(t, workers, 0.01)
			defer n.Close()
			n.Run(8000)
			if avg := testing.AllocsPerRun(200, func() { n.Step() }); avg != 0 {
				t.Fatalf("low-load Network.Step allocates %v times per cycle in steady state; want 0", avg)
			}
		})
		t.Run(fmt.Sprintf("workers%d_pregrown", workers), func(t *testing.T) {
			n := perfMesh(t, workers, 0.5)
			defer n.Close()
			n.Run(200)
			for _, rate := range []float64{0.01, 0.001} {
				n.setInjectionRate(rate)
				n.Run(8000)
				if q := n.QueuedAtSources(); q > int64(len(n.nis)) {
					t.Fatalf("%d flits still queued at sources; the overload has not drained", q)
				}
				assertZeroAllocSteps(t, n)
			}
		})
	}
}

// benchSteps is the body of every Step benchmark: warm up, then time
// Step with the allocation counter on (it must stay at 0).
func benchSteps(b *testing.B, n *Network) {
	defer n.Close()
	n.Run(3000)
	n.Collector().Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
}

// BenchmarkNetworkStep measures the cycle's cost under the saturated VIX
// workload on one worker. At saturation every router is active every
// cycle, so this is also the activity words' worst-case overhead.
func BenchmarkNetworkStep(b *testing.B) { benchSteps(b, perfMesh(b, 1, 0)) }

// BenchmarkNetworkStepLowLoad measures the regime the activity words
// target: 8x8 at 1% injection, where most routers are idle most cycles.
func BenchmarkNetworkStepLowLoad(b *testing.B) { benchSteps(b, perfMesh(b, 1, 0.01)) }

// BenchmarkNetworkStepParallel measures the pooled worklist tick at a
// spread of worker counts on the saturated workload; compare against
// BenchmarkNetworkStep for parallel efficiency.
func BenchmarkNetworkStepParallel(b *testing.B) {
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			benchSteps(b, perfMesh(b, workers, 0))
		})
	}
}

// benchLedgerSteps builds a ledger workload's network — cfg on a w x w
// VIX mesh (kind, k = 2, balanced; 6 VCs of 5 flits, 4-flit packets),
// seed 1 — warms it for warmup cycles, then steps it b.N cycles and
// reports the cost per cycle and per router tick (Advance call).
func benchLedgerSteps(b *testing.B, kind alloc.Kind, w int, rate float64, warmup int) {
	topo := topology.NewMesh(w, w)
	cfg := meshConfig(topo, kind, 2, router.PolicyBalanced)
	cfg.InjectionRate = rate
	cfg.MaxInjection = rate == 0
	cfg.Seed = 1
	n, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	n.Run(warmup)
	ticks := n.RouterTicks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
	b.StopTimer()
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(ns/float64(b.N), "ns/cycle")
	if t := n.RouterTicks() - ticks; t > 0 {
		b.ReportMetric(ns/float64(t), "ns/router-tick")
	}
}

// BenchmarkStepLowLoad is the ledger's mesh16_low network: a 16x16 mesh
// at 0.001116 packets/node/cycle, warmed for 3 000 cycles. Most routers
// are idle most cycles, so a cycle's cost is the few router ticks it
// runs.
func BenchmarkStepLowLoad(b *testing.B) {
	benchLedgerSteps(b, alloc.KindSeparableIF, 16, 0.001116, 3000)
}

// BenchmarkStepLowLoadWavefront and BenchmarkStepLowLoadPC are the same
// network on the two kinds whose state rotates per cycle: a router
// waking from an idle span takes its diagonal, or drops its chains, from
// the cycle number.
func BenchmarkStepLowLoadWavefront(b *testing.B) {
	benchLedgerSteps(b, alloc.KindWavefront, 16, 0.001116, 3000)
}

func BenchmarkStepLowLoadPC(b *testing.B) {
	benchLedgerSteps(b, alloc.KindPacketChaining, 16, 0.001116, 3000)
}

// BenchmarkStepSaturated is the ledger's mesh32_sat network: a 32x32
// mesh at saturation, warmed for 1 500 cycles. Every router ticks every
// cycle and the network's state outgrows a core's L2, so this is where a
// change to the per-router layout shows as a cache effect.
func BenchmarkStepSaturated(b *testing.B) {
	benchLedgerSteps(b, alloc.KindSeparableIF, 32, 0, 1500)
}
