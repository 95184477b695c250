package alloc

import (
	"testing"

	"vix/internal/sim"
)

// ageRequestSet builds a request set with explicit per-request ages.
func ageRequestSet(cfg Config, reqs ...Request) *RequestSet {
	return (&RequestSet{Config: cfg, Requests: reqs}).Pack()
}

func TestAgeAllocatorValidGrants(t *testing.T) {
	rng := sim.NewRNG(61)
	for _, cfg := range allConfigs() {
		a := MustNew(KindSeparableAge, cfg)
		for cycle := 0; cycle < 150; cycle++ {
			rs := randomRequestSet(rng, cfg, 0.5)
			for i := range rs.Requests {
				rs.Requests[i].Age = rng.Intn(20)
			}
			rs.Pack()
			if err := Validate(rs, a.Allocate(rs)); err != nil {
				t.Fatalf("%+v: %v", cfg, err)
			}
		}
	}
}

// The oldest request at an output port always wins output arbitration.
func TestAgeOldestWinsOutput(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 1}
	a := MustNew(KindSeparableAge, cfg)
	for trial := 0; trial < 10; trial++ { // arbiter state must not matter
		rs := ageRequestSet(cfg,
			Request{Port: 0, VC: 0, OutPort: 2, Age: 3},
			Request{Port: 1, VC: 0, OutPort: 2, Age: 9},
			Request{Port: 3, VC: 0, OutPort: 2, Age: 1},
		)
		grants := a.Allocate(rs)
		if len(grants) != 1 || grants[0].IVC/cfg.VCs != 1 {
			t.Fatalf("trial %d: oldest requestor lost: %+v", trial, grants)
		}
	}
}

// The oldest VC within a sub-group wins input arbitration.
func TestAgeOldestWinsInput(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 1}
	a := MustNew(KindSeparableAge, cfg)
	rs := ageRequestSet(cfg,
		Request{Port: 0, VC: 0, OutPort: 2, Age: 1},
		Request{Port: 0, VC: 3, OutPort: 4, Age: 8},
	)
	grants := a.Allocate(rs)
	if len(grants) != 1 {
		t.Fatalf("grants = %+v", grants)
	}
	if grants[0].IVC%cfg.VCs != 3 || grants[0].OutPort != 4 {
		t.Fatalf("older VC lost input arbitration: %+v", grants[0])
	}
}

// With all ages equal, the allocator must remain fair (rotating
// tie-break): under persistent contention each port is served equally.
func TestAgeTieBreakIsFair(t *testing.T) {
	cfg := Config{Ports: 4, VCs: 2, VirtualInputs: 1}
	a := MustNew(KindSeparableAge, cfg)
	counts := map[int]int{}
	for cycle := 0; cycle < 400; cycle++ {
		rs := ageRequestSet(cfg,
			Request{Port: 0, VC: 0, OutPort: 1},
			Request{Port: 1, VC: 0, OutPort: 1},
			Request{Port: 2, VC: 0, OutPort: 1},
		)
		for _, g := range a.Allocate(rs) {
			counts[g.IVC/cfg.VCs]++
		}
	}
	for p := 0; p < 3; p++ {
		if c := counts[p]; c < 100 || c > 170 {
			t.Fatalf("port %d served %d of 400, unfair tie-break: %v", p, c, counts)
		}
	}
}

// Age-aware allocation composes with VIX: two VCs of a port in different
// sub-groups still transmit together.
func TestAgeWithVIX(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 2}
	a := MustNew(KindSeparableAge, cfg)
	rs := ageRequestSet(cfg,
		Request{Port: 2, VC: 0, OutPort: 0, Age: 5},
		Request{Port: 2, VC: 4, OutPort: 3, Age: 2},
	)
	if grants := a.Allocate(rs); len(grants) != 2 {
		t.Fatalf("age+VIX granted %d, want 2", len(grants))
	}
}

// Matching efficiency does not collapse versus the rotating separable
// allocator on uniform traffic with random ages.
func TestAgeEfficiencyComparable(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 1}
	age := MustNew(KindSeparableAge, cfg)
	base := NewSeparableIF(cfg)
	rngA, rngB := sim.NewRNG(62), sim.NewRNG(62)
	var totAge, totBase int
	for i := 0; i < 2000; i++ {
		rsA := randomRequestSet(rngA, cfg, 0.5)
		for j := range rsA.Requests {
			rsA.Requests[j].Age = rngA.Intn(10)
		}
		rsA.Pack()
		totAge += len(age.Allocate(rsA))
		totBase += len(base.Allocate(randomRequestSet(rngB, cfg, 0.5)))
	}
	if float64(totAge) < 0.93*float64(totBase) {
		t.Fatalf("age allocator efficiency collapsed: %d vs %d", totAge, totBase)
	}
}

func TestAgeRegistered(t *testing.T) {
	a, err := New(KindSeparableAge, Config{Ports: 5, VCs: 6, VirtualInputs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "if-age" {
		t.Fatalf("name = %q", a.Name())
	}
}
