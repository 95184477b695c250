package alloc

import (
	"fmt"
	"slices"
	"testing"
)

// skipIdleGeometry returns a valid crossbar geometry for the kind
// (sparoflo requires the conventional crossbar; ideal requires per-VC
// rows).
func skipIdleGeometry(kind Kind) Config {
	cfg := Config{Ports: 5, VCs: 4, VirtualInputs: 2}
	switch kind {
	case KindSparoflo:
		cfg.VirtualInputs = 1
	case KindIdeal:
		cfg.VirtualInputs = cfg.VCs
	}
	return cfg
}

// skipIdleTraffic deterministically fills rs with a pseudo-random but
// valid request set (at most one request per input VC) using a tiny LCG,
// returning the advanced LCG state.
func skipIdleTraffic(rs *RequestSet, state uint64) uint64 {
	rs.Requests = rs.Requests[:0]
	for port := 0; port < rs.Config.Ports; port++ {
		for vc := 0; vc < rs.Config.VCs; vc++ {
			state = state*6364136223846793005 + 1442695040888963407
			if state>>62 == 0 { // ~25% of VCs request each busy cycle
				continue
			}
			rs.Requests = append(rs.Requests, Request{
				Port:    port,
				VC:      vc,
				OutPort: int((state >> 33) % uint64(rs.Config.Ports)),
				Age:     int((state >> 20) % 7),
			})
		}
	}
	rs.Pack()
	return state
}

// TestSkipIdleMatchesEmptyAllocates pins the Allocator contract's idle
// clause for every built-in allocator: a call on an empty set leaves it
// as no call would. Two instances of each kind take the same busy-cycle
// sets at the same Cycle values; across each idle span one gets a literal
// empty Allocate per cycle and the other no call at all, and after every
// busy call both must have granted the same and hold the same pointers.
func TestSkipIdleMatchesEmptyAllocates(t *testing.T) {
	// Spans cross every interesting boundary: single cycles, spans longer
	// than the wavefront diagonal period, spans longer than a bitset word.
	idleSpans := []int{1, 2, 3, 5, 7, 13, 64, 130, 1}
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			cfg := skipIdleGeometry(kind)
			dense := MustNew(kind, cfg)
			skip := MustNew(kind, cfg)
			rsDense := &RequestSet{Config: cfg}
			rsSkip := &RequestSet{Config: cfg}
			empty := &RequestSet{Config: cfg}
			stateDense, stateSkip := uint64(1), uint64(1)
			clock := int64(0)
			for round, span := range idleSpans {
				// A few busy cycles with identical traffic on both copies.
				for busy := 0; busy < 4; busy++ {
					stateDense = skipIdleTraffic(rsDense, stateDense)
					stateSkip = skipIdleTraffic(rsSkip, stateSkip)
					rsDense.Cycle, rsSkip.Cycle = clock, clock
					clock++
					gd := dense.Allocate(rsDense)
					gs := skip.Allocate(rsSkip)
					if fmt.Sprint(gd) != fmt.Sprint(gs) {
						t.Fatalf("round %d busy cycle %d: grants diverged after an idle span without calls\n dense: %v\n skip:  %v",
							round, busy, gd, gs)
					}
					if pd, ps := pointerState(dense), pointerState(skip); !slices.Equal(pd, ps) {
						t.Fatalf("round %d busy cycle %d: pointers diverged after an idle span without calls\n dense: %v\n skip:  %v",
							round, busy, pd, ps)
					}
				}
				// The idle span: literal empty Allocates vs no call.
				for i := 0; i < span; i++ {
					empty.Cycle = clock
					clock++
					if g := dense.Allocate(empty); len(g) != 0 {
						t.Fatalf("empty Allocate returned grants: %v", g)
					}
				}
			}
		})
	}
}
