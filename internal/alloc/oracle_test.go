package alloc

import (
	"math"
	"testing"

	"vix/internal/sim"
)

// TestSeparableMatchesClosedForm holds the single-pass allocators to a
// closed form. When every (port, VC) requests a fresh uniform output each
// cycle, the first phase of a separable allocator — one request per
// virtual input, picked without looking at its output — presents kP
// independent uniform outputs, and the second phase grants every output
// that at least one of them names. The mean grants per cycle is then
// P·(1 − (1 − 1/P)^(kP)), whatever the arbiters' pointers or the
// requests' ages; ideal at k = VCs grants every requested output, the
// same count. Each point's mean must sit within 4 standard errors of it.
func TestSeparableMatchesClosedForm(t *testing.T) {
	const vcs, cycles = 6, 20000
	schemes := []struct {
		kind Kind
		k    int
	}{
		{KindSeparableIF, 1}, {KindSeparableIF, 2}, {KindSeparableIF, vcs},
		{KindSeparableAge, 1}, {KindSeparableAge, 2}, {KindSeparableAge, vcs},
		{KindIdeal, vcs},
	}
	rng := sim.NewRNG(12)
	for _, radix := range []int{4, 5, 8, 10, 16} {
		for _, s := range schemes {
			cfg := Config{Ports: radix, VCs: vcs, VirtualInputs: s.k}
			a := MustNew(s.kind, cfg)
			rs := &RequestSet{Config: cfg, Requests: make([]Request, radix*vcs)}
			var sum, sumSq float64
			for c := 0; c < cycles; c++ {
				for i := range rs.Requests {
					rs.Requests[i] = Request{Port: i / vcs, VC: i % vcs, OutPort: rng.Intn(radix), Age: rng.Intn(64)}
				}
				g := float64(len(a.Allocate(rs.Pack())))
				sum += g
				sumSq += g * g
			}
			mean := sum / cycles
			se := math.Sqrt((sumSq - cycles*mean*mean) / (cycles - 1) / cycles)
			want := float64(radix) * (1 - math.Pow(1-1/float64(radix), float64(s.k*radix)))
			if z := (mean - want) / se; !(math.Abs(z) <= 4) {
				t.Errorf("%s k=%d radix %d: %.4f grants/cycle, closed form %.4f (z = %.2f)", s.kind, s.k, radix, mean, want, z)
			}
		}
	}
}
