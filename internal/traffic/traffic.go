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
type Transpose struct{ g grid }

// NewTranspose returns a transpose pattern over a w x h node grid; w and
// h must be equal.
func NewTranspose(w, h int) Transpose {
	if w != h {
		panic(fmt.Sprintf("traffic: transpose needs a square grid, got %dx%d", w, h))
	}
	return Transpose{g: grid{W: w, H: h}}
}

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
// network centre.
type BitComplement struct{ N int }

// NewBitComplement returns a bit-complement pattern over n nodes (n must
// be a power of two for the name to be literal; any n works as the
// (N-1-i) complement).
func NewBitComplement(n int) BitComplement { return BitComplement{N: n} }

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

// BitReverse sends node i to the bit-reversal of i over log2(N) bits.
type BitReverse struct {
	N    int
	bits int
}

// NewBitReverse returns a bit-reverse pattern over n nodes; n must be a
// power of two.
func NewBitReverse(n int) BitReverse {
	bits := 0
	for 1<<bits < n {
		bits++
	}
	if 1<<bits != n {
		panic(fmt.Sprintf("traffic: bit reverse needs power-of-two nodes, got %d", n))
	}
	return BitReverse{N: n, bits: bits}
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

// NewTornado returns a tornado pattern over a w x h node grid.
func NewTornado(w, h int) Tornado { return Tornado{g: grid{W: w, H: h}} }

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
// the classic perfect-shuffle permutation.
type Shuffle struct {
	N    int
	bits int
}

// NewShuffle returns a shuffle pattern over n nodes; n must be a power of
// two.
func NewShuffle(n int) Shuffle {
	bits := 0
	for 1<<bits < n {
		bits++
	}
	if 1<<bits != n {
		panic(fmt.Sprintf("traffic: shuffle needs power-of-two nodes, got %d", n))
	}
	return Shuffle{N: n, bits: bits}
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

// NewNeighbor returns a nearest-neighbour pattern over a w x h node grid.
func NewNeighbor(w, h int) Neighbor { return Neighbor{g: grid{W: w, H: h}} }

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

// NewHotspot returns the hotspot pattern over n nodes.
func NewHotspot(n int) Hotspot { return Hotspot{uniform: NewUniform(n)} }

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

// Names lists the pattern names New recognises, in documentation order.
func Names() []string {
	return []string{"uniform", "transpose", "bitcomp", "bitrev", "tornado", "shuffle", "neighbor", "hotspot"}
}

// New constructs a pattern by name over a w x h logical node grid.
// Recognised names are those of Names. A grid the pattern is not defined on — fewer than two nodes
// (nobody to address), a non-square grid for transpose, a node count
// that is not a power of two for bitrev and shuffle — is an error, so
// callers resolving user input never reach the typed constructors'
// panics.
func New(name string, w, h int) (Pattern, error) {
	n := w * h
	if w < 1 || h < 1 || n < 2 {
		return nil, fmt.Errorf("traffic: a pattern needs at least 2 nodes, got a %dx%d grid", w, h)
	}
	switch name {
	case "transpose":
		if w != h {
			return nil, fmt.Errorf("traffic: transpose needs a square node grid, got %dx%d", w, h)
		}
	case "bitrev", "shuffle":
		if n&(n-1) != 0 {
			return nil, fmt.Errorf("traffic: %s needs a power-of-two node count, got %d", name, n)
		}
	}
	switch name {
	case "uniform":
		return NewUniform(n), nil
	case "transpose":
		return NewTranspose(w, h), nil
	case "bitcomp":
		return NewBitComplement(n), nil
	case "bitrev":
		return NewBitReverse(n), nil
	case "tornado":
		return NewTornado(w, h), nil
	case "shuffle":
		return NewShuffle(n), nil
	case "neighbor":
		return NewNeighbor(w, h), nil
	case "hotspot":
		return NewHotspot(n), nil
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q", name)
	}
}
