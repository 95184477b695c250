package router

import (
	"testing"

	"vix/internal/alloc"
	"vix/internal/topology"
)

// vcMask packs a per-VC flag list into the mask form vaContext carries.
func vcMask(flags []bool) uint64 {
	var m uint64
	for v, f := range flags {
		if f {
			m |= 1 << uint(v)
		}
	}
	return m
}

// ctx6x2 builds a vaContext for 6 VCs in 2 sub-groups of 3; every VC not
// free is busy.
func ctx6x2(free []bool, credits []int8, dim topology.Dim) *vaContext {
	m := vcMask(free)
	return &vaContext{
		free: m, busy: ^m & 0b111111, credits: credits,
		groupMask: []uint64{0b000111, 0b111000},
		nextDim:   dim,
	}
}

func TestMaxFreePicksMostCredits(t *testing.T) {
	ctx := ctx6x2(
		[]bool{true, true, true, true, true, true},
		[]int8{1, 4, 2, 5, 0, 3},
		topology.DimX,
	)
	if got := policyMaxFree.choose(ctx); got != 3 {
		t.Fatalf("maxfree chose %d, want 3 (5 credits)", got)
	}
}

func TestMaxFreeSkipsBusy(t *testing.T) {
	ctx := ctx6x2(
		[]bool{false, true, false, false, true, false},
		[]int8{9, 1, 9, 9, 2, 9},
		topology.DimY,
	)
	if got := policyMaxFree.choose(ctx); got != 4 {
		t.Fatalf("maxfree chose %d, want 4", got)
	}
}

func TestMaxFreeNoFreeVC(t *testing.T) {
	ctx := ctx6x2(
		[]bool{false, false, false, false, false, false},
		[]int8{0, 0, 0, 0, 0, 0},
		topology.DimX,
	)
	if got := policyMaxFree.choose(ctx); got != -1 {
		t.Fatalf("choose on all-busy = %d, want -1", got)
	}
}

// Dimension policy: X-bound continuations go to sub-group 0, Y-bound and
// ejecting to the last sub-group.
func TestDimensionGroupPreference(t *testing.T) {
	free := []bool{true, true, true, true, true, true}
	creds := []int8{3, 3, 3, 3, 3, 3}
	ctx := ctx6x2(free, creds, topology.DimX)
	if got := policyDimension.choose(ctx); got > 2 {
		t.Fatalf("X continuation assigned VC %d outside sub-group 0", got)
	}
	ctx = ctx6x2(free, creds, topology.DimY)
	if got := policyDimension.choose(ctx); got < 3 {
		t.Fatalf("Y continuation assigned VC %d outside sub-group 1", got)
	}
	ctx = ctx6x2(free, creds, topology.DimLocal)
	if got := policyDimension.choose(ctx); got < 3 {
		t.Fatalf("ejecting packet assigned VC %d outside sub-group 1", got)
	}
}

// Dimension policy falls back to the other sub-group when the preferred
// one is fully busy.
func TestDimensionFallback(t *testing.T) {
	ctx := ctx6x2(
		[]bool{false, false, false, true, true, true},
		[]int8{0, 0, 0, 2, 5, 1},
		topology.DimX,
	)
	if got := policyDimension.choose(ctx); got != 4 {
		t.Fatalf("fallback chose %d, want 4 (most credits in other group)", got)
	}
}

// Balanced policy overrides the dimension preference when the preferred
// sub-group is more heavily occupied, keeping both virtual inputs fed.
func TestBalancedSteersToLighterGroup(t *testing.T) {
	// X-bound packet prefers group 0, but group 0 has 2 busy VCs while
	// group 1 has none: balanced steers to group 1.
	ctx := ctx6x2(
		[]bool{false, false, true, true, true, true},
		[]int8{0, 0, 4, 3, 3, 3},
		topology.DimX,
	)
	if got := policyBalanced.choose(ctx); got < 3 {
		t.Fatalf("balanced chose %d in overloaded group 0", got)
	}
	// Equal occupancy: keep the dimension preference.
	ctx = ctx6x2(
		[]bool{true, true, true, true, true, true},
		[]int8{3, 3, 3, 3, 3, 3},
		topology.DimX,
	)
	if got := policyBalanced.choose(ctx); got > 2 {
		t.Fatalf("balanced abandoned dimension preference without load imbalance: %d", got)
	}
}

// With a single sub-group (k=1) all policies behave like maxfree.
func TestPoliciesDegenerateAtKOne(t *testing.T) {
	ctx := &vaContext{
		free:      vcMask([]bool{true, false, true, true}),
		busy:      vcMask([]bool{false, true, false, false}),
		credits:   []int8{1, 9, 7, 2},
		groupMask: []uint64{0b1111},
		nextDim:   topology.DimY,
	}
	for _, p := range []PolicyKind{PolicyMaxFree, PolicyDimension, PolicyBalanced} {
		if got := p.resolve().choose(ctx); got != 2 {
			t.Errorf("%s chose %d at k=1, want 2", p, got)
		}
	}
}

// Under the interleaved partition sub-group g is {v : v mod k = g}, not a
// block of adjacent VCs, and the dimension-aware policies must pick from
// it. A router with 6 VCs, k = 2 and an X-bound lookahead holds VCs 0
// and 3 of output 1, one per sub-group, so balanced keeps the X
// preference too: the choice must be the free sub-group-0 VC with the
// most credits, VC 2 (VCs 2 and 4 tie; the lower wins), and never VC 1,
// which feeds virtual input 1.
func TestInterleavedPoliciesPickFromTheirSubgroup(t *testing.T) {
	for _, pol := range []PolicyKind{PolicyDimension, PolicyBalanced} {
		cfg := baseConfig()
		cfg.VirtualInputs, cfg.Partition, cfg.Policy = 2, alloc.Interleaved, pol
		ports := make([]PortInfo, cfg.Ports)
		for p := range ports {
			ports[p] = PortInfo{Kind: topology.Link, Dim: topology.DimX}
		}
		a, err := alloc.New(cfg.AllocKind, cfg.Alloc())
		if err != nil {
			t.Fatal(err)
		}
		r := New(0, cfg, ports, a, func(outPort, dst int) topology.Dim { return topology.DimX }, nil, nil)
		const out = 1
		r.view().busy[out] = 1<<0 | 1<<3
		sg := r.arena.seg(0)
		v := r.chooseOVC(sg, Hop{Route: out, Hi: cfg.VCs, Next: topology.DimX})
		if g := cfg.Alloc().Subgroup(v); v < 0 || g != 0 {
			t.Errorf("%s: X-bound packet assigned VC %d (sub-group %d), want sub-group 0", pol, v, g)
		}
		if v != 2 {
			t.Errorf("%s: assigned VC %d, want 2", pol, v)
		}
	}
}

func TestUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown policy did not panic")
		}
	}()
	PolicyKind("bogus").resolve()
}

// TestInjectionVC pins the router's choice of the local-port VC a new
// packet starts in: the Section 2.3 dimension rule over buffer space,
// whatever the configured policy. Each case fills the six 5-flit VCs of
// local port 0 to the given occupancy.
func TestInjectionVC(t *testing.T) {
	cases := []struct {
		name      string
		k         int
		partition alloc.Partition
		policy    PolicyKind
		occupancy [6]int8
		dim       topology.Dim
		want      int
	}{
		// Space 3 4 2 | 5 5 5 in sub-groups {0,1,2} and {3,4,5}.
		{"x head takes sub-group 0's most space", 2, alloc.Contiguous, PolicyBalanced, [6]int8{2, 1, 3, 0, 0, 0}, topology.DimX, 1},
		{"y head takes the last sub-group", 2, alloc.Contiguous, PolicyBalanced, [6]int8{0, 0, 0, 2, 1, 3}, topology.DimY, 4},
		{"local head takes the last sub-group", 2, alloc.Contiguous, PolicyBalanced, [6]int8{0, 0, 0, 2, 1, 3}, topology.DimLocal, 4},
		{"ties go to the lowest VC", 2, alloc.Contiguous, PolicyBalanced, [6]int8{3, 1, 1, 0, 0, 0}, topology.DimX, 1},
		{"y ties go to the lowest VC", 2, alloc.Contiguous, PolicyBalanced, [6]int8{2, 1, 3, 0, 0, 0}, topology.DimY, 3},
		{"a full preferred group falls back", 2, alloc.Contiguous, PolicyBalanced, [6]int8{5, 5, 5, 4, 2, 3}, topology.DimX, 4},
		{"a full y group falls back", 2, alloc.Contiguous, PolicyBalanced, [6]int8{4, 3, 4, 5, 5, 5}, topology.DimY, 1},
		{"a full port has no VC", 2, alloc.Contiguous, PolicyBalanced, [6]int8{5, 5, 5, 5, 5, 5}, topology.DimX, -1},
		{"k = 1: most space wins", 1, alloc.Contiguous, PolicyMaxFree, [6]int8{3, 2, 4, 1, 5, 1}, topology.DimY, 3},
		{"k = 1: full port", 1, alloc.Contiguous, PolicyMaxFree, [6]int8{5, 5, 5, 5, 5, 5}, topology.DimX, -1},
		// Space 1 5 4 3 2 5: sub-groups {0,2,4} and {1,3,5} at k = 2,
		// {0,3}, {1,4} and {2,5} at k = 3.
		{"interleaved k = 2, x", 2, alloc.Interleaved, PolicyBalanced, [6]int8{4, 0, 1, 2, 3, 0}, topology.DimX, 2},
		{"interleaved k = 2, y", 2, alloc.Interleaved, PolicyBalanced, [6]int8{4, 0, 1, 2, 3, 0}, topology.DimY, 1},
		{"interleaved k = 3, x", 3, alloc.Interleaved, PolicyBalanced, [6]int8{4, 0, 1, 2, 3, 0}, topology.DimX, 3},
		{"interleaved k = 3, y", 3, alloc.Interleaved, PolicyBalanced, [6]int8{4, 0, 1, 2, 3, 0}, topology.DimY, 5},
		{"contiguous k = 2, same occupancy, y", 2, alloc.Contiguous, PolicyBalanced, [6]int8{4, 0, 1, 2, 3, 0}, topology.DimY, 5},
		// maxfree alone would take VC 0; injection still prefers the
		// last sub-group for a Y head.
		{"maxfree router applies the dimension rule", 2, alloc.Contiguous, PolicyMaxFree, [6]int8{0, 0, 0, 0, 0, 0}, topology.DimY, 3},
		{"dimension router", 2, alloc.Contiguous, PolicyDimension, [6]int8{0, 0, 0, 0, 0, 0}, topology.DimY, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig()
			cfg.VirtualInputs, cfg.Partition, cfg.Policy = tc.k, tc.partition, tc.policy
			r := testRouter(t, cfg)
			for vc, n := range tc.occupancy {
				for range n {
					r.Deliver(0, vc, NewSlot(0, Body))
				}
			}
			if got := r.InjectionVC(0, tc.dim); got != tc.want {
				t.Errorf("InjectionVC = %d, want %d", got, tc.want)
			}
			if allocs := testing.AllocsPerRun(100, func() { r.InjectionVC(0, tc.dim) }); allocs != 0 {
				t.Errorf("InjectionVC allocates %v times per call", allocs)
			}
		})
	}
}
