package sim

import (
	"math/bits"
	"testing"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130) // three words, last one partial
	if len(b) != 3 {
		t.Fatalf("NewBitset(130) has %d words, want 3", len(b))
	}
	count := func() int {
		n := 0
		for _, w := range b {
			n += bits.OnesCount64(w)
		}
		return n
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Has(i) {
			t.Errorf("fresh bitset has bit %d set", i)
		}
		b.Set(i)
		if !b.Has(i) {
			t.Errorf("Set(%d) left bit %d clear", i, i)
		}
	}
	if got := count(); got != 8 {
		t.Fatalf("%d bits set, want 8", got)
	}
	b.Clear(64)
	if b.Has(64) {
		t.Error("Clear(64) left the bit set")
	}
	if !b.Has(63) || !b.Has(65) {
		t.Error("Clear(64) disturbed neighbouring bits")
	}
	if got := count(); got != 7 {
		t.Fatalf("%d bits set after Clear, want 7", got)
	}
}

// TestBitsetWalkOrder pins the property the gated tick rests on: the
// documented word walk visits set indices in strictly ascending order,
// exactly the order a dense 0..n loop visits them.
func TestBitsetWalkOrder(t *testing.T) {
	b := NewBitset(200)
	want := []int{0, 3, 63, 64, 100, 128, 199}
	// Set in scrambled order; the walk must still come out ascending.
	for _, i := range []int{100, 0, 199, 64, 3, 128, 63} {
		b.Set(i)
	}
	var got []int
	for wi, w := range b {
		for ; w != 0; w &= w - 1 {
			got = append(got, wi<<6+bits.TrailingZeros64(w))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("walk visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk visited %v, want %v", got, want)
		}
	}
}
