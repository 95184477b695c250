package alloc

import (
	"testing"

	"vix/internal/sim"
)

func TestISLIPValidGrants(t *testing.T) {
	rng := sim.NewRNG(31)
	for _, cfg := range allConfigs() {
		for _, iters := range []int{1, 2, 4} {
			s := MustNew(KindISLIP, cfg).(*ISLIP)
			s.p.iterations = iters
			for cycle := 0; cycle < 150; cycle++ {
				rs := randomRequestSet(rng, cfg, 0.5)
				if err := Validate(rs, s.Allocate(rs)); err != nil {
					t.Fatalf("islip(%d) on %+v: %v", iters, cfg, err)
				}
			}
		}
	}
}

// More iterations never hurt average matching size, and multi-iteration
// iSLIP beats single-pass separable IF on random traffic.
func TestISLIPIterationsImproveMatching(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 1}
	totals := map[int]int{}
	for _, iters := range []int{1, 2, 4} {
		s := MustNew(KindISLIP, cfg).(*ISLIP)
		s.p.iterations = iters
		rng := sim.NewRNG(32)
		for cycle := 0; cycle < 2000; cycle++ {
			totals[iters] += len(s.Allocate(randomRequestSet(rng, cfg, 0.5)))
		}
	}
	if !(totals[4] >= totals[2] && totals[2] >= totals[1]) {
		t.Fatalf("iteration scaling broken: %v", totals)
	}

	ifAlloc := NewSeparableIF(cfg)
	rng := sim.NewRNG(32)
	totIF := 0
	for cycle := 0; cycle < 2000; cycle++ {
		totIF += len(ifAlloc.Allocate(randomRequestSet(rng, cfg, 0.5)))
	}
	if totals[2] <= totIF {
		t.Fatalf("2-iteration iSLIP (%d) did not beat single-pass IF (%d)", totals[2], totIF)
	}
}

// With enough iterations iSLIP converges to a maximal matching: nothing
// can be added to its grant set.
func TestISLIPConvergesToMaximal(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 1}
	s := MustNew(KindISLIP, cfg).(*ISLIP)
	s.p.iterations = cfg.Ports // P iterations guarantee convergence
	rng := sim.NewRNG(33)
	for cycle := 0; cycle < 300; cycle++ {
		rs := randomRequestSet(rng, cfg, 0.4)
		grants := s.Allocate(rs)
		rowUsed := map[int]bool{}
		outUsed := map[int]bool{}
		for _, g := range grants {
			rowUsed[g.Row] = true
			outUsed[g.OutPort] = true
		}
		for _, r := range rs.Requests {
			if !rowUsed[cfg.Row(r.Port, r.VC)] && !outUsed[r.OutPort] {
				t.Fatalf("cycle %d: converged iSLIP not maximal: %+v addable", cycle, r)
			}
		}
	}
}

func TestSparofloValidGrants(t *testing.T) {
	rng := sim.NewRNG(41)
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 1}
	s := MustNew(KindSparoflo, cfg)
	for cycle := 0; cycle < 400; cycle++ {
		rs := randomRequestSet(rng, cfg, 0.5)
		if err := Validate(rs, s.Allocate(rs)); err != nil {
			t.Fatal(err)
		}
	}
}

// The paper's related-work ordering: SPAROFLO improves on IF by exposing
// more requests, but VIX beats it because SPAROFLO's conflicts surface
// after output arbitration (no virtual inputs to cash in the extra
// grants).
func TestSparofloBetweenIFAndVIX(t *testing.T) {
	base := Config{Ports: 5, VCs: 6, VirtualInputs: 1}
	vixc := Config{Ports: 5, VCs: 6, VirtualInputs: 2}
	ifAlloc := NewSeparableIF(base)
	sp := MustNew(KindSparoflo, base)
	vix := NewSeparableIF(vixc)
	rngs := [3]*sim.RNG{sim.NewRNG(42), sim.NewRNG(42), sim.NewRNG(42)}
	var totIF, totSP, totVIX int
	for cycle := 0; cycle < 3000; cycle++ {
		totIF += len(ifAlloc.Allocate(randomRequestSet(rngs[0], base, 0.5)))
		totSP += len(sp.Allocate(randomRequestSet(rngs[1], base, 0.5)))
		totVIX += len(vix.Allocate(randomRequestSet(rngs[2], vixc, 0.5)))
	}
	if totSP <= totIF {
		t.Fatalf("SPAROFLO (%d) did not beat IF (%d)", totSP, totIF)
	}
	if totVIX <= totSP {
		t.Fatalf("VIX (%d) did not beat SPAROFLO (%d)", totVIX, totSP)
	}
}

// One grant per physical input port: SPAROFLO's defining constraint.
func TestSparofloSingleGrantPerPort(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 1}
	s := MustNew(KindSparoflo, cfg)
	rs := (&RequestSet{Config: cfg, Requests: []Request{
		{Port: 2, VC: 0, OutPort: 0},
		{Port: 2, VC: 1, OutPort: 1},
		{Port: 2, VC: 2, OutPort: 3},
	}}).Pack()
	for i := 0; i < 10; i++ {
		if got := len(s.Allocate(rs)); got != 1 {
			t.Fatalf("sparoflo granted %d flits from one port", got)
		}
	}
}

func TestRegistryNewKinds(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 1}
	for _, kind := range []Kind{KindISLIP, KindSparoflo} {
		a, err := New(kind, cfg)
		if err != nil {
			t.Fatalf("New(%s): %v", kind, err)
		}
		if a.Name() == "" {
			t.Fatalf("New(%s) has empty name", kind)
		}
	}
	if _, err := New(KindSparoflo, Config{Ports: 5, VCs: 6, VirtualInputs: 2}); err == nil {
		t.Error("sparoflo accepted virtual inputs")
	}
	if got := len(Kinds()); got != 8 {
		t.Errorf("Kinds() = %d entries, want 8", got)
	}
}
