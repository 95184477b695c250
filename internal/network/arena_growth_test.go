package network

import (
	"testing"

	"vix/internal/alloc"
	"vix/internal/router"
	"vix/internal/topology"
)

// TestArenaGrowthByteIdentical pins the claim in FlitArena's contract
// that slab growth is unobservable: a saturated run that starts at the
// minimum slab size and doubles repeatedly mid-measurement must produce
// exactly the same statistics as the same run with the slab pre-sized so
// it never grows. Which slot a flit lands in, and when the slab happens
// to grow, must have no effect on simulation behaviour. Pre-sizing is
// done through the arena's own API: allocating and freeing N slots before
// the first cycle leaves a slab of at least N free slots (in a different
// free-stack order, which must not matter either).
func TestArenaGrowthByteIdentical(t *testing.T) {
	run := func(presize int) (interface{}, int, int) {
		topo := topology.NewMesh(6, 6)
		cfg := meshConfig(topo, alloc.KindSeparableIF, 2, router.PolicyBalanced)
		cfg.MaxInjection = true
		cfg.InjectionRate = 0
		cfg.Seed = 11
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		ids := make([]router.FlitID, presize)
		for i := range ids {
			ids[i] = n.flits.Alloc()
		}
		for _, id := range ids {
			n.flits.Free(id)
		}
		initial := n.flits.Cap()
		s := n.Measure(2500)
		return s, initial, n.flits.Cap()
	}

	grown, grownInitial, grownFinal := run(0)
	if grownFinal <= grownInitial {
		t.Fatalf("growth run never grew its slab (cap %d -> %d); the test is not exercising growth", grownInitial, grownFinal)
	}

	sized, sizedInitial, sizedFinal := run(2 * grownFinal)
	if sizedFinal != sizedInitial {
		t.Fatalf("pre-sized run still grew (cap %d -> %d); increase the pre-size", sizedInitial, sizedFinal)
	}

	if grown != sized {
		t.Fatalf("slab growth perturbed the simulation\ngrown (cap %d->%d):    %+v\npre-sized (cap %d): %+v",
			grownInitial, grownFinal, grown, sizedInitial, sized)
	}
}
