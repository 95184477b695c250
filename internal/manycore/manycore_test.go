package manycore

import (
	"testing"

	"vix/internal/alloc"
	"vix/internal/network"
	"vix/internal/router"
	"vix/internal/topology"
	"vix/internal/trace"
)

// buildSystem wires a manycore onto a mesh network.
func buildSystem(t *testing.T, apps []trace.App, kind alloc.Kind, k int) (*System, *network.Network) {
	t.Helper()
	topo := topology.NewMesh(8, 8)
	sys, err := New(1, apps)
	if err != nil {
		t.Fatal(err)
	}
	policy := router.PolicyMaxFree
	if k > 1 {
		policy = router.PolicyBalanced
	}
	n, err := network.New(network.Config{
		Topology: topo,
		Router: router.Config{
			Ports: topo.Radix, VCs: 6, VirtualInputs: k, BufDepth: 5,
			AllocKind: kind, Policy: policy,
		},
		Workload: sys,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, n
}

func uniformApps(name string, n int) []trace.App {
	a, err := trace.ByName(name)
	if err != nil {
		panic(err)
	}
	apps := make([]trace.App, n)
	for i := range apps {
		apps[i] = a
	}
	return apps
}

// A chip of compute-bound cores runs at full issue width: the network
// must not throttle nearly miss-free applications.
func TestComputeBoundCoresRunAtIssueWidth(t *testing.T) {
	sys, n := buildSystem(t, uniformApps("povray", 64), alloc.KindSeparableIF, 1)
	n.Run(6000)
	for i, ipc := range sys.IPC(6000) {
		// A rare long miss burst can stall even a near-miss-free core
		// briefly, so demand 90% of issue width rather than all of it.
		if ipc < 0.90*issueWidth {
			t.Fatalf("core %d IPC %.3f below issue width on compute-bound app", i, ipc)
		}
	}
}

// Memory-bound cores must be throttled well below issue width by memory
// latency through the MLP window.
func TestMemoryBoundCoresAreThrottled(t *testing.T) {
	sys, n := buildSystem(t, uniformApps("mcf", 64), alloc.KindSeparableIF, 1)
	n.Run(4000)
	total := 0.0
	for _, ipc := range sys.IPC(4000) {
		total += ipc
	}
	if avg := total / 64; avg > 0.9*issueWidth {
		t.Fatalf("mcf chip average IPC %.3f, expected heavy memory throttling", avg)
	}
}

// Higher MPKI must not raise IPC; across three apps the ordering of IPC
// is the reverse of MPKI ordering.
func TestIPCOrderedByMPKI(t *testing.T) {
	ipcOf := func(app string) float64 {
		sys, n := buildSystem(t, uniformApps(app, 64), alloc.KindSeparableIF, 1)
		n.Run(3000)
		total := 0.0
		for _, v := range sys.IPC(3000) {
			total += v
		}
		return total / 64
	}
	light := ipcOf("sjeng") // ~1.6 MPKI
	mid := ipcOf("milc")    // ~39 MPKI
	heavy := ipcOf("mcf")   // ~176 MPKI
	if !(light > mid && mid > heavy) {
		t.Fatalf("IPC not ordered by MPKI: sjeng %.3f, milc %.3f, mcf %.3f", light, mid, heavy)
	}
}

// Outstanding transactions never exceed the MLP window per core.
func TestMLPWindowRespected(t *testing.T) {
	sys, n := buildSystem(t, uniformApps("mcf", 64), alloc.KindSeparableIF, 1)
	for i := 0; i < 1000; i++ {
		n.Step()
		for c, core := range sys.cores {
			if core.outstanding > mlpWindow {
				t.Fatalf("core %d has %d outstanding, window %d", c, core.outstanding, mlpWindow)
			}
		}
	}
}

// Every transaction eventually completes: run traffic, then let the
// system idle by swapping in a no-miss phase is impossible mid-run, so
// instead check steady state: outstanding stays bounded and transactions
// complete continuously.
func TestTransactionsComplete(t *testing.T) {
	sys, n := buildSystem(t, uniformApps("xalan", 64), alloc.KindSeparableIF, 1)
	n.Run(1000)
	if sys.Outstanding() > 64*mlpWindow {
		t.Fatalf("outstanding %d exceeds chip-wide bound", sys.Outstanding())
	}
	sys.ResetRetired()
	n.Run(2000)
	total := 0.0
	for _, v := range sys.IPC(2000) {
		total += v
	}
	if total == 0 {
		t.Fatal("no instructions retired in steady state: system deadlocked")
	}
}

// VIX must speed up a memory-intensive chip relative to baseline IF —
// the Table 4 mechanism at component level.
func TestVIXSpeedsUpMemoryBoundChip(t *testing.T) {
	run := func(kind alloc.Kind, k int) float64 {
		sys, n := buildSystem(t, uniformApps("Gems", 64), kind, k)
		n.Run(1500)
		sys.ResetRetired()
		n.Run(4000)
		total := 0.0
		for _, v := range sys.IPC(4000) {
			total += v
		}
		return total
	}
	base := run(alloc.KindSeparableIF, 1)
	vix := run(alloc.KindSeparableIF, 2)
	if vix <= base {
		t.Fatalf("VIX chip IPC %.2f not above baseline %.2f on memory-bound workload", vix, base)
	}
}

// The memory controllers sit on nodes of the 8x8 grid: a chip with
// fewer nodes than the highest controller node is rejected.
func TestConfigValidation(t *testing.T) {
	if _, err := New(1, uniformApps("milc", 63)); err == nil {
		t.Error("out-of-range memory controller accepted")
	}
	if _, err := New(1, uniformApps("milc", 64)); err != nil {
		t.Errorf("64 nodes rejected: %v", err)
	}
}

func TestTagRoundTrip(t *testing.T) {
	for _, id := range []uint64{0, 1, 12345, 1 << 40} {
		for phase := 0; phase < 4; phase++ {
			gotID, gotPhase := untag(tag(id, phase))
			if gotID != id || gotPhase != phase {
				t.Fatalf("tag round trip failed: (%d,%d) -> (%d,%d)", id, phase, gotID, gotPhase)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		sys, n := buildSystem(t, uniformApps("milc", 64), alloc.KindSeparableIF, 1)
		n.Run(1500)
		return sys.IPC(1500)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("core %d IPC diverged: %v vs %v", i, a[i], b[i])
		}
	}
}

// The MC bandwidth model must add queueing delay under heavy DRAM
// pressure: a chip of high-L2-miss cores retires fewer instructions with
// a tight service interval than with back-to-back DRAM starts.
func TestMCBandwidthThrottles(t *testing.T) {
	chipIPC := func(service int64) float64 {
		sys, n := buildSystem(t, uniformApps("mcf", 64), alloc.KindSeparableIF, 1)
		sys.mcService = service
		n.Run(4000)
		total := 0.0
		for _, v := range sys.IPC(4000) {
			total += v
		}
		return total
	}
	unlimited := chipIPC(0)
	tight := chipIPC(20)
	if tight >= unlimited {
		t.Fatalf("tight MC bandwidth (%.1f chip IPC) not below unlimited (%.1f)", tight, unlimited)
	}
}

// The speedup mechanism is visible in the memory-latency metric: VIX
// lowers the average memory-transaction latency on a congested chip.
func TestVIXLowersMemoryLatency(t *testing.T) {
	memLat := func(kind alloc.Kind, k int) float64 {
		sys, n := buildSystem(t, uniformApps("Gems", 64), kind, k)
		n.Run(1500)
		sys.ResetRetired()
		n.Run(4000)
		return sys.AvgMemLatency()
	}
	base := memLat(alloc.KindSeparableIF, 1)
	vix := memLat(alloc.KindSeparableIF, 2)
	if base <= 0 || vix <= 0 {
		t.Fatalf("latency accounting empty: base %.1f vix %.1f", base, vix)
	}
	if vix >= base {
		t.Fatalf("VIX memory latency %.1f not below baseline %.1f", vix, base)
	}
}
