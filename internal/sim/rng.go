// Package sim provides deterministic simulation primitives shared by the
// VIX network simulator: a fast, reproducible random number generator and
// small numeric helpers.
//
// All stochastic behaviour in the simulator (traffic generation, arbiter
// tie-breaking randomisation in testbenches, trace synthesis) flows through
// RNG so that every experiment is exactly reproducible from a seed.
package sim

import (
	"math"
	"math/bits"
)

// RNG is a splitmix64-based pseudo random number generator.
//
// splitmix64 passes BigCrush, has a 2^64 period, and is trivially seedable,
// which makes it well suited for reproducible simulation. RNG is not safe
// for concurrent use; give each concurrent component its own stream via
// Fork.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators constructed
// with the same seed produce identical sequences.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Fork derives an independent stream from the generator's seed and the
// given stream identifier. Forking with distinct stream values yields
// statistically independent sequences, so per-node or per-core generators
// can be created without correlating their draws.
func (r *RNG) Fork(stream uint64) *RNG {
	// Mix the stream id through one splitmix64 round with a distinct
	// odd constant so Fork(0) differs from the parent.
	z := r.state + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return &RNG{state: z ^ (z >> 31)}
}

// DeriveSeed derives a stable sub-seed from a root seed and a label path
// using the 64-bit FNV-1a construction. It is the seeding counterpart to
// Fork: where Fork splits a live generator, DeriveSeed names a stream up
// front — the experiment harness keys each job's RNG on the job's labels
// so every grid point replays identically whether it runs first, last,
// serial, or on any of N workers.
//
// The derivation is pure stdlib arithmetic and pinned by unit tests;
// changing it would silently re-seed every manifest, so it must never
// drift.
func DeriveSeed(root uint64, labels ...string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		mix(byte(root >> (8 * i)))
	}
	for _, l := range labels {
		for i := 0; i < len(l); i++ {
			mix(l[i])
		}
		// Terminate each label so ("ab","c") and ("a","bc") derive
		// different streams.
		mix(0)
	}
	return h
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and fast.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniformly distributed float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p. Values of p outside [0, 1]
// are clamped.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// BernoulliThreshold compiles Bernoulli's p into the integer bound
// NextBelow compares draws with: ceil(p * 2^53), saturating at 2^53
// for p >= 1. Float64 is k / 2^53 for the 53-bit integer k = Uint64()>>11
// and scaling by a power of two is exact, so Float64() < p is k < p * 2^53,
// which for an integer k is k < ceil(p * 2^53): the two forms agree on
// every word for every p > 0. A p that is not positive (or not a number)
// gets 0, which no draw is below.
func BernoulliThreshold(p float64) uint64 {
	switch {
	case p >= 1:
		return 1 << 53
	case p > 0:
		return uint64(math.Ceil(p * (1 << 53)))
	}
	return 0
}

// NextBelow draws once from each of rngs[from:], in order, until a draw
// falls below thr, and returns that generator's index, or len(rngs) when
// none does; generators past the hit are not drawn. For thr =
// BernoulliThreshold(p), p > 0, each draw is rngs[i].Bernoulli(p) without
// the float conversion — the same outcome from the same word, and like
// Bernoulli no draw at all when p >= 1 — so a caller resuming the scan
// after each hit gives every generator exactly its one Bernoulli(p) draw,
// as one tight loop over contiguous state.
func NextBelow(rngs []RNG, from int, thr uint64) int {
	if thr >= 1<<53 {
		return from
	}
	for i := from; i < len(rngs); i++ {
		if rngs[i].Uint64()>>11 < thr {
			return i
		}
	}
	return len(rngs)
}

// Exp returns an exponentially distributed value with the given mean.
// It is used to space synthetic-trace cache misses.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(u)
}
