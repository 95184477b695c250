package network

import (
	"runtime"
	"testing"

	"vix/internal/alloc"
	"vix/internal/router"
	"vix/internal/topology"
)

// TestNetworkFootprintIsPinned holds the heap bytes network.New
// allocates per router for the ledger's mesh16_low network — a 16x16
// VIX mesh (if, k = 2, balanced; 6 VCs of 5 flits) on the serial tick —
// to the figure measured once a tick's scratch became per lane: the
// arena, the allocator pool, the routers, NIs, RNGs, wheels, route table
// and statistics, everything the workload's live heap holds before its
// first cycle. Bytes are TotalAlloc's, so size-class rounding counts; the
// least of three builds stands, in case something else allocated
// meanwhile. While every router kept its own request set, emission and
// credit buffers and allocator scratch, the same network took 1 574 B
// per router, and 1 141 B while it kept the cycle each router last
// ticked, a per-router crossbar-row mask and an 80 B Router.
func TestNetworkFootprintIsPinned(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector pads heap objects; the pin is a normal build's bytes")
	}
	const pin = 1086
	topo := topology.NewMesh(16, 16)
	cfg := meshConfig(topo, alloc.KindSeparableIF, 2, router.PolicyBalanced)
	cfg.InjectionRate = 0.001116
	cfg.Seed = 1
	least := uint64(1 << 63)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := New(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		n.Close()
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/uint64(topo.NumRouters))
	}
	if least > pin {
		t.Errorf("network.New allocates %d B per router of mesh16_low's network, pinned at %d B", least, pin)
	} else {
		t.Logf("network.New allocates %d B per router of mesh16_low's network (pin %d B)", least, pin)
	}
}
