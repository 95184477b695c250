package alloc_test

import (
	"fmt"
	"testing"

	"vix/internal/alloc"
	"vix/internal/sim"
)

// FuzzAllocate drives every registered allocator kind with randomized,
// seeded request streams and asserts the three contracts the simulator's
// results rest on:
//
//  1. legality — every grant set passes alloc.Validate;
//  2. determinism — two runs from Reset() with identical inputs produce
//     byte-identical grant sequences;
//  3. purity — Allocate never mutates the caller's RequestSet, in either
//     form (the router hands its own state as the packed form). Nothing
//     checks this statically: the seed corpus replayed by every
//     `go test` is the gate.
//
// alloc.Classify puts every request in exactly one class — granted, row
// taken, output taken or both free — for every kind. Wavefront,
// augmenting path and ideal also promise a maximal matching: no
// ungranted request finds both its crossbar row and its output free. And
// ideal, one row per VC, never loses a request to its own row.
//
// All randomness flows through sim.RNG, so any failing input is exactly
// reproducible from the fuzz corpus entry.
func FuzzAllocate(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(4), uint8(2), uint8(8))
	f.Add(uint64(2), uint8(5), uint8(6), uint8(2), uint8(12))
	f.Add(uint64(3), uint8(2), uint8(1), uint8(1), uint8(4))
	f.Add(uint64(4), uint8(8), uint8(6), uint8(3), uint8(6))
	f.Add(uint64(0xdeadbeef), uint8(3), uint8(5), uint8(5), uint8(10))
	// The dense-reference lockstep corpus: radix 10, short last
	// sub-groups, the interleaved partition, two-word row masks, a full
	// 64-line arbiter word.
	for i, g := range alloc.ReferenceGeometries() {
		f.Add(uint64(100+i), uint8(g.Ports-2), uint8(g.VCs-1), uint8(g.VirtualInputs-1), uint8(15)|uint8(g.Partition)<<7)
		// The same geometry with every other cycle a lone request (bit 6),
		// the set SeparableIF grants without arbitrating.
		f.Add(uint64(200+i), uint8(g.Ports-2), uint8(g.VCs-1), uint8(g.VirtualInputs-1), uint8(15)|1<<6|uint8(g.Partition)<<7)
	}
	f.Fuzz(func(t *testing.T, seed uint64, ports, vcs, virtuals, cycles uint8) {
		cfg := alloc.Config{
			Ports:     int(ports)%15 + 2,         // 2..16
			VCs:       int(vcs)%alloc.MaxVCs + 1, // 1..MaxVCs
			Partition: alloc.Partition(cycles >> 7),
		}
		cfg.VirtualInputs = int(virtuals)%cfg.VCs + 1 // 1..VCs
		nCycles := int(cycles)%16 + 1
		lone := cycles&(1<<6) != 0
		if err := cfg.Validate(); err != nil {
			t.Fatalf("generated config %+v should be valid: %v", cfg, err)
		}
		for _, kind := range alloc.Kinds() {
			c := cfg
			// Respect the geometries the registry enforces.
			switch kind {
			case alloc.KindIdeal:
				c.VirtualInputs = c.VCs
			case alloc.KindSparoflo:
				c.VirtualInputs = 1
			}
			a, err := alloc.New(kind, c)
			if err != nil {
				t.Fatalf("New(%q, %+v): %v", kind, c, err)
			}
			first := grantTranscript(t, a, kind, c, seed, nCycles, lone)
			second := grantTranscript(t, a, kind, c, seed, nCycles, lone)
			if first != second {
				t.Errorf("%q is nondeterministic: two runs from Reset() with seed %d diverged\nrun 1: %s\nrun 2: %s",
					kind, seed, first, second)
			}
		}
	})
}

// grantTranscript resets a, replays nCycles of seeded random request sets
// through it — every other one a single request when lone is set — and
// returns the concatenated grant sequence rendered to bytes. It fails the
// test on an illegal grant set, a lone request left ungranted, a loss
// class sum that misses a request, a non-maximal matching from a kind
// that promises one, a row-taken loss under ideal, or a mutated input.
func grantTranscript(t *testing.T, a alloc.Allocator, kind alloc.Kind, cfg alloc.Config, seed uint64, nCycles int, lone bool) string {
	t.Helper()
	a.Reset()
	rng := sim.NewRNG(seed)
	out := ""
	var l alloc.Losses
	for cycle := 0; cycle < nCycles; cycle++ {
		rs := randomRequestSet(cfg, rng)
		if lone && cycle%2 == 1 {
			rs.Requests = []alloc.Request{{
				Port: rng.Intn(cfg.Ports), VC: rng.Intn(cfg.VCs), OutPort: rng.Intn(cfg.Ports), Age: rng.Intn(32),
			}}
			rs.Pack()
		}
		rs.Cycle = int64(cycle)
		snapshot := append([]alloc.Request(nil), rs.Requests...)
		packed := fmt.Sprint(rs.Ready, rs.Out, rs.Age)
		grants := a.Allocate(&rs)
		if err := alloc.Validate(&rs, grants); err != nil {
			t.Fatalf("%q cycle %d: illegal grants: %v\nrequests: %+v", kind, cycle, err, rs.Requests)
		}
		if len(rs.Requests) == 1 && len(grants) != 1 {
			t.Fatalf("%q cycle %d: lone request %+v drew %d grants, want 1", kind, cycle, rs.Requests[0], len(grants))
		}
		alloc.Classify(&rs, grants, &l)
		if l.Granted != len(grants) || l.Granted+l.RowTaken+l.OutputTaken+l.BothFree != len(rs.Requests) {
			t.Fatalf("%q cycle %d: %d granted + %d row taken + %d output taken + %d both free, want %d granted of %d requests",
				kind, cycle, l.Granted, l.RowTaken, l.OutputTaken, l.BothFree, len(grants), len(rs.Requests))
		}
		if maximal[kind] && l.BothFree != 0 {
			t.Fatalf("%q cycle %d: matching not maximal: %d requests leave their row and output free\nrequests: %+v\ngrants: %+v",
				kind, cycle, l.BothFree, rs.Requests, grants)
		}
		if kind == alloc.KindIdeal && l.RowTaken != 0 {
			t.Fatalf("%q cycle %d: %d requests lost to their own row, which only they drive\nrequests: %+v\ngrants: %+v",
				kind, cycle, l.RowTaken, rs.Requests, grants)
		}
		if len(rs.Requests) != len(snapshot) {
			t.Fatalf("%q cycle %d: Allocate resized the caller's request slice (%d -> %d)",
				kind, cycle, len(snapshot), len(rs.Requests))
		}
		for i := range snapshot {
			if rs.Requests[i] != snapshot[i] {
				t.Fatalf("%q cycle %d: Allocate mutated request %d: %+v -> %+v",
					kind, cycle, i, snapshot[i], rs.Requests[i])
			}
		}
		if got := fmt.Sprint(rs.Ready, rs.Out, rs.Age); got != packed {
			t.Fatalf("%q cycle %d: Allocate mutated the packed form:\n%s\n-> %s", kind, cycle, packed, got)
		}
		out += fmt.Sprintf("%v", grants)
	}
	return out
}

// maximal are the kinds whose every grant set is a maximal matching.
var maximal = map[alloc.Kind]bool{alloc.KindWavefront: true, alloc.KindAugmentingPath: true, alloc.KindIdeal: true}

// randomRequestSet offers, per input VC, at most one request to a random
// output with a small random age — the "one route per head flit" shape
// routers present.
func randomRequestSet(cfg alloc.Config, rng *sim.RNG) alloc.RequestSet {
	rs := alloc.RequestSet{Config: cfg}
	for p := 0; p < cfg.Ports; p++ {
		for v := 0; v < cfg.VCs; v++ {
			if !rng.Bernoulli(0.6) {
				continue
			}
			rs.Requests = append(rs.Requests, alloc.Request{
				Port:    p,
				VC:      v,
				OutPort: rng.Intn(cfg.Ports),
				Age:     rng.Intn(32),
			})
		}
	}
	rs.Pack()
	return rs
}
