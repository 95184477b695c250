package traffic

import (
	"testing"
	"testing/quick"

	"vix/internal/sim"
)

// mustNew is New of name on the 8x8 grid, which every pattern is
// defined on.
func mustNew(t *testing.T, name string) Pattern {
	t.Helper()
	p, err := New(name, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Property: no pattern ever self-addresses or leaves the node range.
func TestPatternsNeverSelfAddress(t *testing.T) {
	rng := sim.NewRNG(1)
	for _, name := range Names() {
		p := mustNew(t, name)
		prop := func(s uint8) bool {
			src := int(s) % 64
			d := p.Dest(src, rng)
			return d != src && d >= 0 && d < 64
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}

func TestUniformCoversAllDestinations(t *testing.T) {
	u := NewUniform(16)
	rng := sim.NewRNG(2)
	seen := make(map[int]bool)
	for i := 0; i < 5000; i++ {
		seen[u.Dest(3, rng)] = true
	}
	if len(seen) != 15 {
		t.Fatalf("uniform from node 3 reached %d destinations, want 15", len(seen))
	}
	if seen[3] {
		t.Fatal("uniform self-addressed")
	}
}

func TestTransposeMapping(t *testing.T) {
	tr := mustNew(t, "transpose")
	// (x=2, y=5) = node 42 -> (x=5, y=2) = node 21.
	if d := tr.Dest(42, nil); d != 21 {
		t.Fatalf("transpose(42) = %d, want 21", d)
	}
	// Diagonal (3,3) = 27 -> complement (4,4) = 36.
	if d := tr.Dest(27, nil); d != 36 {
		t.Fatalf("transpose diagonal(27) = %d, want 36", d)
	}
}

func TestTransposeIsInvolutionOffDiagonal(t *testing.T) {
	tr := mustNew(t, "transpose")
	for src := 0; src < 64; src++ {
		x, y := src%8, src/8
		if x == y {
			continue
		}
		if back := tr.Dest(tr.Dest(src, nil), nil); back != src {
			t.Fatalf("transpose not involutive at %d: %d", src, back)
		}
	}
}

func TestBitComplement(t *testing.T) {
	b := mustNew(t, "bitcomp")
	if d := b.Dest(0, nil); d != 63 {
		t.Fatalf("bitcomp(0) = %d, want 63", d)
	}
	if d := b.Dest(21, nil); d != 42 {
		t.Fatalf("bitcomp(21) = %d, want 42", d)
	}
}

func TestBitReverse(t *testing.T) {
	b := mustNew(t, "bitrev")
	// 0b000001 -> 0b100000.
	if d := b.Dest(1, nil); d != 32 {
		t.Fatalf("bitrev(1) = %d, want 32", d)
	}
	// 0b110100 (52) -> 0b001011 (11).
	if d := b.Dest(52, nil); d != 11 {
		t.Fatalf("bitrev(52) = %d, want 11", d)
	}
}

func TestTornadoStaysInRow(t *testing.T) {
	tn := mustNew(t, "tornado")
	for src := 0; src < 64; src++ {
		d := tn.Dest(src, nil)
		if d/8 != src/8 {
			t.Fatalf("tornado left its row: %d -> %d", src, d)
		}
		// Half-way around the row: offset 3 for W=8.
		if wantX := (src%8 + 3) % 8; d%8 != wantX {
			t.Fatalf("tornado(%d) x = %d, want %d", src, d%8, wantX)
		}
	}
}

func TestHotspotConcentration(t *testing.T) {
	h := mustNew(t, "hotspot")
	rng := sim.NewRNG(3)
	hits := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		if h.Dest(7, rng) == 0 {
			hits++
		}
	}
	// A fifth of the traffic plus a sliver of uniform traffic hits node 0.
	frac := float64(hits) / draws
	if frac < 0.19 || frac > 0.24 {
		t.Fatalf("hotspot fraction = %v, want about 0.21", frac)
	}
}

func TestNewByName(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name, 8, 8)
		if err != nil {
			t.Errorf("New(%q) failed: %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := New("nonsense", 8, 8); err == nil {
		t.Error("New accepted unknown pattern")
	}
	// Grids a pattern is not defined on are errors.
	for _, c := range []struct {
		name string
		w, h int
	}{
		{"uniform", 1, 1}, {"uniform", 0, 4}, {"tornado", 1, 1},
		{"transpose", 3, 2}, {"bitrev", 3, 3}, {"shuffle", 3, 2},
	} {
		if p, err := New(c.name, c.w, c.h); err == nil {
			t.Errorf("New(%q, %d, %d) = %v, want an error", c.name, c.w, c.h, p)
		}
	}
}

func TestShuffle(t *testing.T) {
	s := mustNew(t, "shuffle")
	// 0b000011 (3) rotates to 0b000110 (6).
	if d := s.Dest(3, nil); d != 6 {
		t.Fatalf("shuffle(3) = %d, want 6", d)
	}
	// 0b100000 (32) rotates to 0b000001 (1).
	if d := s.Dest(32, nil); d != 1 {
		t.Fatalf("shuffle(32) = %d, want 1", d)
	}
	// Fixed points (0 and 63) must redirect.
	if d := s.Dest(0, nil); d == 0 {
		t.Fatal("shuffle(0) self-addressed")
	}
	if d := s.Dest(63, nil); d == 63 {
		t.Fatal("shuffle(63) self-addressed")
	}
}

func TestNeighbor(t *testing.T) {
	nb := mustNew(t, "neighbor")
	if d := nb.Dest(0, nil); d != 1 {
		t.Fatalf("neighbor(0) = %d, want 1", d)
	}
	// Row wrap: node 7 (end of row 0) goes to node 0.
	if d := nb.Dest(7, nil); d != 0 {
		t.Fatalf("neighbor(7) = %d, want 0", d)
	}
	for src := 0; src < 64; src++ {
		if d := nb.Dest(src, nil); d/8 != src/8 {
			t.Fatalf("neighbor left its row: %d -> %d", src, d)
		}
	}
}
