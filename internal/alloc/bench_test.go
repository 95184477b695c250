package alloc_test

import (
	"testing"

	"vix/internal/alloc"
	"vix/internal/sim"
)

// benchAllocate drives one allocator kind with a pre-generated rotation of
// request sets in the two shapes the ledger's workloads present: saturated
// (mesh8_sat: most VCs requesting) and lone (mesh16_low carries 1.02
// requests per call). Every Allocator keeps its working buffers as
// construction-time scratch, so a warmed-up allocator must report
// 0 allocs/op here; the allocation counter is the regression gate.
func benchAllocate(b *testing.B, kind alloc.Kind) {
	cfg := alloc.Config{Ports: 5, VCs: 6, VirtualInputs: 2}
	switch kind {
	case alloc.KindIdeal:
		cfg.VirtualInputs = cfg.VCs
	case alloc.KindSparoflo:
		cfg.VirtualInputs = 1
	}
	rng := sim.NewRNG(1)
	saturated := make([]alloc.RequestSet, 64)
	lone := make([]alloc.RequestSet, 64)
	for i := range saturated {
		saturated[i] = randomRequestSet(cfg, rng)
		lone[i] = alloc.RequestSet{Config: cfg, Requests: []alloc.Request{{
			Port: rng.Intn(cfg.Ports), VC: rng.Intn(cfg.VCs), OutPort: rng.Intn(cfg.Ports), Age: rng.Intn(32),
		}}}
		lone[i].Pack()
	}
	for _, shape := range []struct {
		name string
		sets []alloc.RequestSet
	}{{"saturated", saturated}, {"lone", lone}} {
		b.Run(shape.name, func(b *testing.B) {
			a, err := alloc.New(kind, cfg)
			if err != nil {
				b.Fatal(err)
			}
			for i := range saturated {
				a.Allocate(&saturated[i]) // warm the scratch to its high-water mark
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs := &shape.sets[i%len(shape.sets)]
				rs.Cycle = int64(i) // rotates wavefront's diagonal, lets pc chain
				a.Allocate(rs)
			}
		})
	}
}

func BenchmarkAllocateIF(b *testing.B)        { benchAllocate(b, alloc.KindSeparableIF) }
func BenchmarkAllocateWavefront(b *testing.B) { benchAllocate(b, alloc.KindWavefront) }
func BenchmarkAllocateAP(b *testing.B)        { benchAllocate(b, alloc.KindAugmentingPath) }
func BenchmarkAllocatePC(b *testing.B)        { benchAllocate(b, alloc.KindPacketChaining) }
func BenchmarkAllocateIdeal(b *testing.B)     { benchAllocate(b, alloc.KindIdeal) }
func BenchmarkAllocateISLIP(b *testing.B)     { benchAllocate(b, alloc.KindISLIP) }
func BenchmarkAllocateSparoflo(b *testing.B)  { benchAllocate(b, alloc.KindSparoflo) }
func BenchmarkAllocateIFAge(b *testing.B)     { benchAllocate(b, alloc.KindSeparableAge) }

// TestAllocateZeroAllocsSteadyState asserts the scratch contract at the
// allocator layer: after one warming call, Allocate performs no heap
// allocations for any registered kind.
func TestAllocateZeroAllocsSteadyState(t *testing.T) {
	for _, kind := range alloc.Kinds() {
		cfg := alloc.Config{Ports: 5, VCs: 6, VirtualInputs: 2}
		switch kind {
		case alloc.KindIdeal:
			cfg.VirtualInputs = cfg.VCs
		case alloc.KindSparoflo:
			cfg.VirtualInputs = 1
		}
		a, err := alloc.New(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(7)
		sets := make([]alloc.RequestSet, 16)
		for i := range sets {
			sets[i] = randomRequestSet(cfg, rng)
		}
		for i := range sets {
			a.Allocate(&sets[i])
		}
		i := 0
		avg := testing.AllocsPerRun(100, func() {
			a.Allocate(&sets[i%len(sets)])
			i++
		})
		if avg != 0 {
			t.Errorf("%q: Allocate allocates %v times per call in steady state; want 0", kind, avg)
		}
	}
}
