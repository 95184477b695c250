package alloc

import (
	"testing"

	"vix/internal/sim"
)

// A connection granted last cycle must be preserved this cycle when the
// same input port requests the same output again (SameInput, anyVC).
func TestChainingPreservesConnections(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 4, VirtualInputs: 1}
	pc := MustNew(KindPacketChaining, cfg)

	// Cycle 1: ports 0 and 1 both want output 2; exactly one wins.
	rs := (&RequestSet{Config: cfg, Requests: []Request{
		{Port: 0, VC: 0, OutPort: 2},
		{Port: 1, VC: 0, OutPort: 2},
	}}).Pack()
	g1 := pc.Allocate(rs)
	if len(g1) != 1 {
		t.Fatalf("cycle 1 granted %d, want 1", len(g1))
	}
	winner := g1[0].IVC / cfg.VCs

	// Cycle 2: same requests; the previous winner must keep the output.
	rs.Cycle = 1
	g2 := pc.Allocate(rs)
	if len(g2) != 1 || g2[0].IVC/cfg.VCs != winner {
		t.Fatalf("cycle 2 did not preserve connection: %+v (prev winner port %d)", g2, winner)
	}
}

// Chaining is anyVC: a different VC of the same input port chains onto
// the held connection.
func TestChainingAnyVC(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 4, VirtualInputs: 1}
	pc := MustNew(KindPacketChaining, cfg)

	g1 := pc.Allocate((&RequestSet{Config: cfg, Requests: []Request{
		{Port: 3, VC: 0, OutPort: 1},
	}}).Pack())
	if len(g1) != 1 {
		t.Fatalf("setup grant failed: %v", g1)
	}

	// Next cycle the same port requests output 1 from VC 2, while port 4
	// also wants output 1. The chain must win.
	rs2 := (&RequestSet{Config: cfg, Requests: []Request{
		{Port: 3, VC: 2, OutPort: 1},
		{Port: 4, VC: 0, OutPort: 1},
	}, Cycle: 1}).Pack()
	g2 := pc.Allocate(rs2)
	found := false
	for _, g := range g2 {
		if g.OutPort == 1 {
			if p := g.IVC / cfg.VCs; p != 3 {
				t.Fatalf("output 1 granted to port %d, want chained port 3", p)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("output 1 not granted at all")
	}
}

// A broken chain (no request for the held output) frees the output for
// other ports.
func TestChainingReleasesWhenUnrequested(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 4, VirtualInputs: 1}
	pc := MustNew(KindPacketChaining, cfg)
	pc.Allocate((&RequestSet{Config: cfg, Requests: []Request{
		{Port: 0, VC: 0, OutPort: 2},
	}}).Pack())
	rs := (&RequestSet{Config: cfg, Requests: []Request{
		{Port: 1, VC: 0, OutPort: 2},
	}, Cycle: 1}).Pack()
	g := pc.Allocate(rs)
	if len(g) != 1 || g[0].IVC/cfg.VCs != 1 {
		t.Fatalf("released output not granted to new requestor: %+v", g)
	}
}

// Under sustained uniform single-flit traffic, packet chaining must beat
// plain separable IF (the premise of Figure 10), and both must stay valid.
func TestChainingBeatsIFOnPersistentTraffic(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 1}
	ifAlloc := NewSeparableIF(cfg)
	pc := MustNew(KindPacketChaining, cfg)
	rngA, rngB := sim.NewRNG(21), sim.NewRNG(21)

	// Persistent traffic: each VC holds a multi-cycle stream to one
	// output, re-randomised occasionally — the regime chaining exploits.
	persistent := func(rng *sim.RNG, dest [][]int) *RequestSet {
		rs := &RequestSet{Config: cfg}
		for p := 0; p < cfg.Ports; p++ {
			for v := 0; v < cfg.VCs; v++ {
				if rng.Bernoulli(0.05) {
					dest[p][v] = rng.Intn(cfg.Ports)
				}
				rs.Requests = append(rs.Requests, Request{Port: p, VC: v, OutPort: dest[p][v]})
			}
		}
		return rs.Pack()
	}
	mkDest := func(rng *sim.RNG) [][]int {
		d := make([][]int, cfg.Ports)
		for p := range d {
			d[p] = make([]int, cfg.VCs)
			for v := range d[p] {
				d[p][v] = rng.Intn(cfg.Ports)
			}
		}
		return d
	}
	destA, destB := mkDest(rngA), mkDest(rngB)
	var totIF, totPC int
	for i := 0; i < 3000; i++ {
		rsA := persistent(rngA, destA)
		totIF += len(ifAlloc.Allocate(rsA))
		rsB := persistent(rngB, destB)
		rsB.Cycle = int64(i)
		g := pc.Allocate(rsB)
		if err := Validate(rsB, g); err != nil {
			t.Fatal(err)
		}
		totPC += len(g)
	}
	if totPC <= totIF {
		t.Fatalf("packet chaining (%d) did not beat IF (%d) on persistent traffic", totPC, totIF)
	}
}
