package sim

import (
	"math"
	"strings"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestForkIndependence(t *testing.T) {
	root := NewRNG(7)
	a := root.Fork(0)
	b := root.Fork(1)
	if a.Uint64() == b.Uint64() {
		t.Fatal("forked streams 0 and 1 produced identical first draw")
	}
	// Forking must not disturb the parent.
	p1 := NewRNG(7)
	p1.Fork(3)
	p2 := NewRNG(7)
	if p1.Uint64() != p2.Uint64() {
		t.Fatal("Fork mutated parent state")
	}
}

func TestForkSameStreamIsReproducible(t *testing.T) {
	a := NewRNG(9).Fork(5)
	b := NewRNG(9).Fork(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same fork diverged at draw %d", i)
		}
	}
}

// TestDeriveSeedPinned pins the exact FNV-1a derivation. These constants
// are load-bearing: harness manifests key cached results on configs whose
// seeds come from DeriveSeed, so any drift silently invalidates every
// recorded experiment. Do not update the expectations without a migration
// story.
func TestDeriveSeedPinned(t *testing.T) {
	cases := []struct {
		root   uint64
		labels []string
		want   uint64
	}{
		{0, nil, 12161962213042174405},
		{1, nil, 9929646806074584996},
		{1, []string{"sweep"}, 17571131006644858884},
		{1, []string{"sweep", "if", "1", "0.05"}, 5781121148146890315},
		{1, []string{"ab", "c"}, 5570201331691886582},
		{1, []string{"a", "bc"}, 16238504304201489198},
		{2, []string{"sweep"}, 1703110861996998371},
		{1, []string{"fig8", "VIX", "saturation"}, 10991343882178022141},
	}
	for _, c := range cases {
		if got := DeriveSeed(c.root, c.labels...); got != c.want {
			t.Errorf("DeriveSeed(%d, %q) = %d, want %d", c.root, c.labels, got, c.want)
		}
	}
}

// TestDeriveSeedSeparatesLabels re-checks the label-boundary property the
// pinned table encodes: concatenations that read the same must not
// collide, and both root and label order matter.
func TestDeriveSeedSeparatesLabels(t *testing.T) {
	if DeriveSeed(1, "ab", "c") == DeriveSeed(1, "a", "bc") {
		t.Error(`("ab","c") and ("a","bc") collided`)
	}
	if DeriveSeed(1, "a", "b") == DeriveSeed(1, "b", "a") {
		t.Error("label order did not reach the derivation")
	}
	if DeriveSeed(1, "x") == DeriveSeed(2, "x") {
		t.Error("root seed did not reach the derivation")
	}
	seen := make(map[uint64]string)
	for _, labels := range [][]string{nil, {""}, {"", ""}, {"a"}, {"a", ""}, {"", "a"}} {
		h := DeriveSeed(7, labels...)
		if prev, dup := seen[h]; dup {
			t.Errorf("labels %q collide with %q", labels, prev)
		}
		seen[h] = "[" + strings.Join(labels, ",") + "]"
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(3)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := NewRNG(11)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("bucket %d has %d draws, want about %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(5)
	sum := 0.0
	const draws = 50000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want about 0.5", mean)
	}
}

func TestBernoulli(t *testing.T) {
	r := NewRNG(13)
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	hits := 0
	const draws = 50000
	for i := 0; i < draws; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if rate := float64(hits) / draws; math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(17)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := r.Exp(25)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-25) > 1 {
		t.Fatalf("Exp(25) mean = %v", mean)
	}
}

// TestIntnPinned pins Intn's outputs for one seed across bounds small,
// large and rejection-prone (3<<61 rejects a quarter of all words), so
// the 128-bit product behind it can change form but not value.
func TestIntnPinned(t *testing.T) {
	r := NewRNG(29)
	for _, c := range []struct{ n, want int }{
		{1, 0},
		{2, 1},
		{3, 2},
		{10, 3},
		{64, 5},
		{1000, 525},
		{1<<31 + 1, 1667012653},
		{1<<62 + 12345, 4217103031060606838},
		{1<<63 - 1, 1838491164746149622},
		{3 << 61, 5859897847654434340},
	} {
		if got := r.Intn(c.n); got != c.want {
			t.Fatalf("Intn(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// rngYielding returns a generator whose next Uint64 is out: splitmix64's
// output mix is a bijection, undone here step by step (an xorshift by
// s >= 22 inverts as x ^ x>>s ^ x>>2s; an odd multiplier inverts by
// Newton's iteration mod 2^64).
func rngYielding(out uint64) RNG {
	inv := func(a uint64) uint64 {
		x := a
		for i := 0; i < 6; i++ {
			x *= 2 - a*x
		}
		return x
	}
	z := out
	z ^= z>>31 ^ z>>62
	z *= inv(0x94d049bb133111eb)
	z ^= z>>27 ^ z>>54
	z *= inv(0xbf58476d1ce4e5b9)
	z ^= z>>30 ^ z>>60
	return RNG{state: z - 0x9e3779b97f4a7c15}
}

// TestNextBelowMatchesBernoulli holds the integer threshold scan to the
// float draw it replaces. For each p, a slab of generators scanned cycle
// after cycle must hit exactly where per-generator Bernoulli(p) calls on
// twin streams do, over more than 10^6 draws, and leave every stream in
// step with its twin (so neither form consumed a word the other did not);
// and on the two words either side of the threshold, forced through the
// generator, both forms must split the same way.
func TestNextBelowMatchesBernoulli(t *testing.T) {
	ps := []float64{0x1p-53, 1e-12, 0.001116, 0.5, 1 - 0x1p-53}
	pick := NewRNG(31)
	for i := 0; i < 8; i++ {
		ps = append(ps, pick.Float64(), pick.Float64()*0x1p-20)
	}
	const nodes, cycles = 64, 1<<14 + 1
	for _, p := range ps {
		thr := BernoulliThreshold(p)
		for _, k := range []uint64{thr - 1, thr} {
			word := k<<11 | 0x5a5 // the low 11 bits never reach the compare
			a, b := rngYielding(word), rngYielding(word)
			got, want := NextBelow([]RNG{a}, 0, thr) == 0, b.Bernoulli(p)
			if got != want || want != (k < thr) {
				t.Fatalf("p=%g word %d (threshold %d): NextBelow hit %v, Bernoulli %v", p, k, thr, got, want)
			}
		}
		root := NewRNG(37)
		scan, twin := make([]RNG, nodes), make([]RNG, nodes)
		for i := range scan {
			scan[i] = *root.Fork(uint64(i))
			twin[i] = scan[i]
		}
		for c := 0; c < cycles; c++ {
			next := NextBelow(scan, 0, thr)
			for i := range twin {
				hit := twin[i].Bernoulli(p)
				if hit != (i == next) {
					t.Fatalf("p=%g cycle %d node %d: Bernoulli %v, scan's next hit at %d", p, c, i, hit, next)
				}
				if hit {
					next = NextBelow(scan, i+1, thr)
				}
			}
		}
		for i := range scan {
			if scan[i] != twin[i] {
				t.Fatalf("p=%g: node %d's streams consumed different numbers of draws", p, i)
			}
		}
	}
	for _, p := range []float64{0, -0.5, math.Inf(-1), math.NaN()} {
		if thr := BernoulliThreshold(p); thr != 0 {
			t.Fatalf("BernoulliThreshold(%g) = %d, want 0", p, thr)
		}
	}
	// p >= 1 hits everywhere and, like Bernoulli, draws nothing.
	for _, p := range []float64{1, 1.5, math.MaxFloat64, math.Inf(1)} {
		rngs := []RNG{*NewRNG(41), *NewRNG(43)}
		thr := BernoulliThreshold(p)
		if a, b := NextBelow(rngs, 0, thr), NextBelow(rngs, 1, thr); a != 0 || b != 1 {
			t.Fatalf("p=%g: hits at %d, %d, want 0, 1", p, a, b)
		}
		if rngs[0] != *NewRNG(41) || rngs[1] != *NewRNG(43) {
			t.Fatalf("p=%g consumed a draw", p)
		}
	}
}
