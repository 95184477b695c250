// Package traffic provides the statistical traffic patterns used in the
// paper's evaluation (uniform random) plus the standard adversarial
// patterns (transpose, bit complement, bit reverse, tornado, hotspot)
// that exercise the Section 2.3 dimension-aware VC assignment.
//
// Patterns map a source terminal to a destination terminal over a logical
// node grid. The 64-node configurations of the paper use an 8x8 logical
// node grid regardless of topology (the concentrated topologies pack four
// logical nodes per router).
package traffic

import (
	"fmt"
	"math/bits"

	"vix/internal/sim"
)

// Pattern produces a destination node for each generated packet.
type Pattern interface {
	// Name returns a short identifier such as "uniform".
	Name() string
	// Dest returns the destination node for a packet from src. It must
	// not return src for patterns that would self-address; such patterns
	// redirect deterministically.
	Dest(src int, rng *sim.RNG) int
}

// Uniform sends each packet to a destination chosen uniformly at random
// among all other nodes — the paper's primary statistical workload.
type Uniform struct{ N int }

// NewUniform returns a uniform-random pattern over n nodes.
func NewUniform(n int) Uniform { return Uniform{N: n} }

// Name implements Pattern.
func (Uniform) Name() string { return "uniform" }

// Dest implements Pattern.
func (u Uniform) Dest(src int, rng *sim.RNG) int {
	d := rng.Intn(u.N - 1)
	if d >= src {
		d++
	}
	return d
}

// grid describes the logical node grid used by coordinate-based patterns.
type grid struct{ W, H int }

func (g grid) xy(n int) (int, int) { return n % g.W, n / g.W }
func (g grid) node(x, y int) int   { return y*g.W + x }

// Transpose sends (x, y) to (y, x) on the logical node grid: adversarial
// for dimension-order routing because all traffic crosses the diagonal.
// The grid must be square.
type Transpose struct{ g grid }

// Name implements Pattern.
func (Transpose) Name() string { return "transpose" }

// Dest implements Pattern. Diagonal nodes (x == y) would self-address;
// they fall back to the grid-complement destination.
func (t Transpose) Dest(src int, _ *sim.RNG) int {
	x, y := t.g.xy(src)
	if x == y {
		return t.g.node(t.g.W-1-x, t.g.H-1-y)
	}
	return t.g.node(y, x)
}

// BitComplement sends node i to node (N-1-i): every packet crosses the
// network centre. N need not be a power of two: the name is literal only
// when it is, but any N works as the (N-1-i) complement.
type BitComplement struct{ N int }

// Name implements Pattern.
func (BitComplement) Name() string { return "bitcomp" }

// Dest implements Pattern.
func (b BitComplement) Dest(src int, _ *sim.RNG) int {
	d := b.N - 1 - src
	if d == src { // odd N midpoint
		return (src + 1) % b.N
	}
	return d
}

// BitReverse sends node i to the bit-reversal of i over log2(N) bits; N
// must be a power of two.
type BitReverse struct {
	N    int
	bits int
}

// Name implements Pattern.
func (BitReverse) Name() string { return "bitrev" }

// Dest implements Pattern.
func (b BitReverse) Dest(src int, _ *sim.RNG) int {
	d := 0
	for i := 0; i < b.bits; i++ {
		if src&(1<<i) != 0 {
			d |= 1 << (b.bits - 1 - i)
		}
	}
	if d == src {
		return (src + b.N/2) % b.N
	}
	return d
}

// Tornado sends each node halfway around its row, concentrating load on
// row channels: (x, y) -> ((x + ceil(W/2) - 1) mod W, y).
type Tornado struct{ g grid }

// Name implements Pattern.
func (Tornado) Name() string { return "tornado" }

// Dest implements Pattern.
func (t Tornado) Dest(src int, _ *sim.RNG) int {
	x, y := t.g.xy(src)
	dx := (x + (t.g.W+1)/2 - 1) % t.g.W
	if dx == x {
		dx = (x + 1) % t.g.W
	}
	return t.g.node(dx, y)
}

// Shuffle sends node i to the left bit-rotation of i over log2(N) bits —
// the classic perfect-shuffle permutation. N must be a power of two.
type Shuffle struct {
	N    int
	bits int
}

// Name implements Pattern.
func (Shuffle) Name() string { return "shuffle" }

// Dest implements Pattern.
func (s Shuffle) Dest(src int, _ *sim.RNG) int {
	d := ((src << 1) | (src >> (s.bits - 1))) & (s.N - 1)
	if d == src { // all-zero and all-one fixed points
		return (src + s.N/2) % s.N
	}
	return d
}

// Neighbor sends each node to its east neighbour on the logical grid
// (wrapping): maximal locality, the benign counterpart of the adversarial
// patterns.
type Neighbor struct{ g grid }

// Name implements Pattern.
func (Neighbor) Name() string { return "neighbor" }

// Dest implements Pattern.
func (nb Neighbor) Dest(src int, _ *sim.RNG) int {
	x, y := nb.g.xy(src)
	return nb.g.node((x+1)%nb.g.W, y)
}

// Hotspot sends a fifth of the traffic to node 0 and the remainder
// uniformly.
type Hotspot struct{ uniform Uniform }

// Name implements Pattern.
func (Hotspot) Name() string { return "hotspot" }

// Dest implements Pattern.
func (h Hotspot) Dest(src int, rng *sim.RNG) int {
	if rng.Bernoulli(0.2) {
		// A draw that decides nothing: every pinned hotspot output
		// depends on the stream consuming it.
		rng.Intn(1)
		if src != 0 {
			return 0
		}
	}
	return h.uniform.Dest(src, rng)
}

// patterns is the one statement of the pattern set, in documentation
// order: Names lists it and New builds from it. A row builds its pattern
// over a w x h grid of at least two nodes, or says why the pattern is not
// defined on that grid. It is an array, so Names makes a slice of
// constant length, which stays on an inlining caller's stack: config's
// Validate asks Names for every spec and allocates nothing
// (TestValidateAllocatesNothing).
var patterns = [...]struct {
	name  string
	build func(w, h int) (Pattern, error)
}{
	{"uniform", func(w, h int) (Pattern, error) { return NewUniform(w * h), nil }},
	{"transpose", func(w, h int) (Pattern, error) {
		if w != h {
			return nil, fmt.Errorf("traffic: transpose needs a square node grid, got %dx%d", w, h)
		}
		return Transpose{grid{W: w, H: h}}, nil
	}},
	{"bitcomp", func(w, h int) (Pattern, error) { return BitComplement{N: w * h}, nil }},
	{"bitrev", func(w, h int) (Pattern, error) {
		b, err := log2("bitrev", w*h)
		if err != nil {
			return nil, err
		}
		return BitReverse{N: w * h, bits: b}, nil
	}},
	{"tornado", func(w, h int) (Pattern, error) { return Tornado{grid{W: w, H: h}}, nil }},
	{"shuffle", func(w, h int) (Pattern, error) {
		b, err := log2("shuffle", w*h)
		if err != nil {
			return nil, err
		}
		return Shuffle{N: w * h, bits: b}, nil
	}},
	{"neighbor", func(w, h int) (Pattern, error) { return Neighbor{grid{W: w, H: h}}, nil }},
	{"hotspot", func(w, h int) (Pattern, error) { return Hotspot{NewUniform(w * h)}, nil }},
}

// log2 returns the bits that number n nodes, or why pattern name, a
// permutation of those bits, is not defined on n.
func log2(name string, n int) (int, error) {
	if n&(n-1) != 0 {
		return 0, fmt.Errorf("traffic: %s needs a power-of-two node count, got %d", name, n)
	}
	return bits.Len(uint(n)) - 1, nil
}

// Names lists the pattern names New recognises, in documentation order.
func Names() []string {
	names := make([]string, len(patterns))
	for i, p := range patterns {
		names[i] = p.name
	}
	return names
}

// New constructs a pattern by name over a w x h logical node grid.
// Recognised names are those of Names. A grid the pattern is not defined
// on — fewer than two nodes (nobody to address), a non-square grid for
// transpose, a node count that is not a power of two for bitrev and
// shuffle — is an error.
func New(name string, w, h int) (Pattern, error) {
	if w < 1 || h < 1 || w*h < 2 {
		return nil, fmt.Errorf("traffic: a pattern needs at least 2 nodes, got a %dx%d grid", w, h)
	}
	for _, p := range patterns {
		if p.name == name {
			return p.build(w, h)
		}
	}
	return nil, fmt.Errorf("traffic: unknown pattern %q", name)
}
