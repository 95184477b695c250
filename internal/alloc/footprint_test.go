package alloc

import (
	"runtime"
	"testing"
)

// TestAllocatorFootprintIsPinned holds each built-in kind's heap bytes
// per instance, as constructed (before any cell list grows), to a pin at
// the radix-5 VIX geometry and the radix-10 conventional one (ideal at a
// row per VC, sparoflo at k = 1). A network builds one allocator per
// router, so a table copied into every instance shows here first.
// Bytes are TotalAlloc's, over 1024 instances, so size-class rounding
// counts and the figure does not depend on when the collector runs; the
// least of three samples stands, in case something else allocated
// meanwhile. Before the kinds read the router's packed request set,
// SeparableIF took 960 B at 5x6x2 and Wavefront 3696 B at 10x6x1.
func TestAllocatorFootprintIsPinned(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector pads heap objects; the pins are a normal build's bytes")
	}
	pins := []struct {
		kind     Kind
		at5x6x2  uint64
		at10x6x1 uint64
	}{
		{KindSeparableIF, 496, 664},
		{KindWavefront, 912, 1504},
		{KindAugmentingPath, 1109, 1744},
		{KindPacketChaining, 936, 1232},
		{KindIdeal, 664, 1056},
		{KindISLIP, 1216, 1864},
		{KindSparoflo, 672, 976},
		{KindSeparableAge, 504, 672},
	}
	if len(pins) != len(Kinds()) {
		t.Fatalf("%d pins for %d kinds", len(pins), len(Kinds()))
	}
	for _, p := range pins {
		for _, c := range []struct {
			cfg Config
			pin uint64
		}{
			{Config{Ports: 5, VCs: 6, VirtualInputs: 2}, p.at5x6x2},
			{Config{Ports: 10, VCs: 6, VirtualInputs: 1}, p.at10x6x1},
		} {
			switch p.kind {
			case KindIdeal:
				c.cfg.VirtualInputs = c.cfg.VCs
			case KindSparoflo:
				c.cfg.VirtualInputs = 1
			}
			if got := instanceBytes(p.kind, c.cfg); got > c.pin {
				t.Errorf("%s at %dx%dx%d: %d B per instance, pinned at %d B",
					p.kind, c.cfg.Ports, c.cfg.VCs, c.cfg.VirtualInputs, got, c.pin)
			} else {
				t.Logf("%s at %dx%dx%d: %d B per instance (pin %d B)",
					p.kind, c.cfg.Ports, c.cfg.VCs, c.cfg.VirtualInputs, got, c.pin)
			}
		}
	}
}

// instanceBytes returns the bytes allocated per instance of kind on cfg,
// averaged over 1024 constructions: the least of three such averages.
func instanceBytes(kind Kind, cfg Config) uint64 {
	const n = 1024
	keep := make([]Allocator, n)
	least := uint64(1 << 63)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range keep {
			keep[i] = MustNew(kind, cfg)
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/n)
	}
	runtime.KeepAlive(keep)
	return least
}
