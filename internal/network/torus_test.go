package network

import (
	"fmt"
	"testing"

	"vix/internal/alloc"
	"vix/internal/router"
	"vix/internal/stats"
	"vix/internal/topology"
)

// TestTorusCoincidesWithMeshAt2x2 pins the wrap-free equivalence the
// torus construction promises: rings of fewer than three routers carry
// no wraparound link, so a 2x2 torus is wired identically to the 2x2
// mesh and torus DOR's tie-break picks the mesh direction — the two
// simulations must be byte-identical, not merely statistically close.
func TestTorusCoincidesWithMeshAt2x2(t *testing.T) {
	run := func(topo *topology.Topology) interface{} {
		cfg := meshConfig(topo, alloc.KindSeparableIF, 2, router.PolicyBalanced)
		cfg.MaxInjection = true
		cfg.InjectionRate = 0
		cfg.Seed = 9
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		n.Warmup(300)
		return n.Measure(900)
	}
	mesh := run(topology.NewMesh(2, 2))
	torus := run(topology.NewTorus(2, 2))
	if mesh != torus {
		t.Fatalf("2x2 torus diverged from 2x2 mesh\nmesh:  %+v\ntorus: %+v", mesh, torus)
	}
}

// TestTorusSaturationDeadlockFree drives tori with real wraparound rings
// (even and odd sizes) at maximum injection — the regime that closes the
// ring dependency cycles if the dateline classes fail — under a tight
// forward-progress watchdog. A wedged network panics; a healthy one
// keeps ejecting.
func TestTorusSaturationDeadlockFree(t *testing.T) {
	for _, size := range []int{4, 5} {
		t.Run(fmt.Sprintf("%dx%d", size, size), func(t *testing.T) {
			topo := topology.NewTorus(size, size)
			cfg := meshConfig(topo, alloc.KindSeparableIF, 2, router.PolicyBalanced)
			cfg.MaxInjection = true
			cfg.InjectionRate = 0
			cfg.Seed = 3
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n.stallLimit = 2500
			defer n.Close()
			n.Warmup(500)
			s := n.Measure(5000)
			if s.PacketsEjected <= 0 {
				t.Fatalf("saturated %dx%d torus ejected nothing", size, size)
			}
		})
	}
}

// TestTorusParallelAndGateLockstep runs every Step schedule on a torus
// with live wrap links: the fused walk and the pooled worklist must
// reproduce stepDense exactly on the wraparound geometry too (wrap links
// connect routers in different worklist segments by construction).
func TestTorusParallelAndGateLockstep(t *testing.T) {
	run := func(workers int, dense bool) interface{} {
		topo := topology.NewTorus(6, 6)
		cfg := meshConfig(topo, alloc.KindSeparableIF, 2, router.PolicyBalanced)
		cfg.InjectionRate = 0.04
		cfg.Seed = 5
		cfg.Workers = workers
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		return n.warmMeasure(400, 1600, dense)
	}
	ref := run(1, true)
	for _, workers := range lockstepWorkers {
		if got := run(workers, false); got != ref {
			t.Fatalf("torus lockstep diverged at workers=%d\nref: %+v\ngot: %+v", workers, ref, got)
		}
	}
}

// TestTorusNeedsTwoVCs: a torus with wraparound rings must be rejected
// when the router has fewer than two VCs — the dateline scheme has
// nothing to split. The wrap-free 2x2 torus stays legal with one VC.
func TestTorusNeedsTwoVCs(t *testing.T) {
	cfg := meshConfig(topology.NewTorus(4, 4), alloc.KindSeparableIF, 1, router.PolicyMaxFree)
	cfg.Router.VCs = 1
	if _, err := New(cfg); err == nil {
		t.Fatal("4x4 torus with 1 VC was accepted; the dateline classes need at least 2")
	}
	cfg = meshConfig(topology.NewTorus(2, 2), alloc.KindSeparableIF, 1, router.PolicyMaxFree)
	cfg.Router.VCs = 1
	n, err := New(cfg)
	if err != nil {
		t.Fatalf("wrap-free 2x2 torus with 1 VC rejected: %v", err)
	}
	n.Close()
}

// linkVCOccupancy runs topo saturated under if, k = 1, at seed for 1 000
// warmup and 3 000 measured cycles, and returns the mean flits each VC
// index holds over every inter-router input port, sampled every 10
// measured cycles, with the window's snapshot.
func linkVCOccupancy(t *testing.T, topo *topology.Topology, seed uint64) ([]float64, stats.Snapshot) {
	t.Helper()
	cfg := meshConfig(topo, alloc.KindSeparableIF, 1, router.PolicyMaxFree)
	cfg.MaxInjection = true
	cfg.InjectionRate = 0
	cfg.Seed = seed
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Warmup(1000)
	vcs, depth := cfg.Router.VCs, cfg.Router.BufDepth
	held := make([]float64, vcs)
	samples := 0
	for range 300 {
		n.Run(10)
		for r, rt := range n.Routers() {
			for p, c := range topo.Conn[r] {
				if c.Kind != topology.Link {
					continue
				}
				samples++
				for v := range vcs {
					held[v] += float64(depth - rt.BufferSpace(p, v))
				}
			}
		}
	}
	for v := range held {
		held[v] /= float64(samples)
	}
	return held, n.Collector().Snapshot()
}

// TestTorusStarvationIsNotLinkCongestion pins the diagnosis of the
// saturated 8x8 torus delivering less than the mesh (ROADMAP, item 14):
// the torus's link VCs are nearly empty, class 0 (headed for the wrap,
// VCs [0, 3)) emptier than class 1 (past the wrap or never crossing it,
// VCs [3, 6)), while the mesh fills its six VCs evenly. Its starvation is
// not link-buffer congestion. A dateline class assignment that fixes it
// (ROADMAP, item 14(b)) must flip these inequalities; update the test
// with it.
func TestTorusStarvationIsNotLinkCongestion(t *testing.T) {
	mesh, meshSnap := linkVCOccupancy(t, topology.NewMesh(8, 8), 1)
	torus, torusSnap := linkVCOccupancy(t, topology.NewTorus(8, 8), 1)
	mean := func(xs []float64) float64 {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	class0, class1 := mean(torus[:3]), mean(torus[3:])
	t.Logf("mean flits per link VC (of 5): mesh %.2f, torus %.2f", mesh, torus)
	t.Logf("torus class 0 %.2f, class 1 %.2f", class0, class1)
	t.Logf("throughput (flits/node/cycle): mesh %.3f, torus %.3f; fairness (max/min): mesh %.1f, torus %.1f",
		meshSnap.ThroughputFlits, torusSnap.ThroughputFlits, meshSnap.FairnessRatio, torusSnap.FairnessRatio)

	if class1 < 2*class0 {
		t.Errorf("torus class-1 VCs hold %.2f flits, under twice class 0's %.2f: the dateline classes no longer skew occupancy; if this is the ROADMAP item 14(b) fix, it must flip this check", class1, class0)
	}
	lo, hi := mesh[0], mesh[0]
	for _, x := range mesh {
		lo, hi = min(lo, x), max(hi, x)
	}
	if hi > 1.1*lo {
		t.Errorf("mesh VC occupancy spans %.2f to %.2f flits, more than 10%%: the mesh is the even-use baseline the ROADMAP item 14(b) fix must bring the torus to", lo, hi)
	}
	if torusSnap.ThroughputFlits >= meshSnap.ThroughputFlits {
		t.Errorf("torus throughput %.3f not below mesh %.3f: if this is the ROADMAP item 14(b) fix, it must flip this check", torusSnap.ThroughputFlits, meshSnap.ThroughputFlits)
	}
}
