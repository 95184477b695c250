package router

import (
	"testing"

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
		nextDim:   dim, groupSize: 3,
	}
}

func TestMaxFreePicksMostCredits(t *testing.T) {
	ctx := ctx6x2(
		[]bool{true, true, true, true, true, true},
		[]int8{1, 4, 2, 5, 0, 3},
		topology.DimX,
	)
	if got := PolicyMaxFree.choose(ctx); got != 3 {
		t.Fatalf("maxfree chose %d, want 3 (5 credits)", got)
	}
}

func TestMaxFreeSkipsBusy(t *testing.T) {
	ctx := ctx6x2(
		[]bool{false, true, false, false, true, false},
		[]int8{9, 1, 9, 9, 2, 9},
		topology.DimY,
	)
	if got := PolicyMaxFree.choose(ctx); got != 4 {
		t.Fatalf("maxfree chose %d, want 4", got)
	}
}

func TestMaxFreeNoFreeVC(t *testing.T) {
	ctx := ctx6x2(
		[]bool{false, false, false, false, false, false},
		[]int8{0, 0, 0, 0, 0, 0},
		topology.DimX,
	)
	if got := PolicyMaxFree.choose(ctx); got != -1 {
		t.Fatalf("choose on all-busy = %d, want -1", got)
	}
}

// Dimension policy: X-bound continuations go to sub-group 0, Y-bound and
// ejecting to the last sub-group.
func TestDimensionGroupPreference(t *testing.T) {
	free := []bool{true, true, true, true, true, true}
	creds := []int8{3, 3, 3, 3, 3, 3}
	ctx := ctx6x2(free, creds, topology.DimX)
	if got := PolicyDimension.choose(ctx); got > 2 {
		t.Fatalf("X continuation assigned VC %d outside sub-group 0", got)
	}
	ctx = ctx6x2(free, creds, topology.DimY)
	if got := PolicyDimension.choose(ctx); got < 3 {
		t.Fatalf("Y continuation assigned VC %d outside sub-group 1", got)
	}
	ctx = ctx6x2(free, creds, topology.DimLocal)
	if got := PolicyDimension.choose(ctx); got < 3 {
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
	if got := PolicyDimension.choose(ctx); got != 4 {
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
	if got := PolicyBalanced.choose(ctx); got < 3 {
		t.Fatalf("balanced chose %d in overloaded group 0", got)
	}
	// Equal occupancy: keep the dimension preference.
	ctx = ctx6x2(
		[]bool{true, true, true, true, true, true},
		[]int8{3, 3, 3, 3, 3, 3},
		topology.DimX,
	)
	if got := PolicyBalanced.choose(ctx); got > 2 {
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
		groupSize: 4,
	}
	for _, p := range []PolicyKind{PolicyMaxFree, PolicyDimension, PolicyBalanced} {
		if got := p.choose(ctx); got != 2 {
			t.Errorf("%s chose %d at k=1, want 2", p, got)
		}
	}
}

func TestUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown policy did not panic")
		}
	}()
	PolicyKind("bogus").choose(ctx6x2(
		[]bool{true, true, true, true, true, true},
		[]int8{1, 1, 1, 1, 1, 1},
		topology.DimX,
	))
}
