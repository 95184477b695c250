package network

import (
	"fmt"
	"testing"

	"vix/internal/alloc"
	"vix/internal/router"
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
