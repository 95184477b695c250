package alloc

import (
	"runtime"
	"testing"
)

// TestAllocatorFootprintIsPinned holds each built-in kind's heap bytes
// per instance, as constructed, to a pin at the radix-5 VIX geometry and
// the radix-10 conventional one (ideal at a row per VC, sparoflo at
// k = 1), twice: standalone (New, a pool of one) and pooled (NewMany's
// share of 1024 views of one pool, as a network builds them, the
// returned []Allocator included). A network builds one allocator per
// router, so a table copied into every instance shows here first.
// Bytes are TotalAlloc's, over 1024 instances, so size-class rounding
// counts and the figure does not depend on when the collector runs; the
// least of three samples stands, in case something else allocated
// meanwhile. Before the kinds read the router's packed request set,
// SeparableIF took 960 B at 5x6x2 and Wavefront 3696 B at 10x6x1. A
// pooled IF at 5x6x2 is its 16 B view, its 20 B of pointer segments, its
// 16 B []Allocator entry, which a network drops once its routers hold
// their allocators, and the slabs' size-class rounding; the one lane's
// scratch, shared by all 1024, adds under a byte each (it was 208 B per
// instance while scratch was kept per instance: 264 B in all). Wavefront
// lost its 2 B priority diagonal (880 B and 48 B at 5x6x2 with it), a
// function of RequestSet.Cycle now, and packet chaining gained the 8 B
// stamp of its latest call's Cycle (632 B and 76 B without).
func TestAllocatorFootprintIsPinned(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector pads heap objects; the pins are a normal build's bytes")
	}
	pins := []struct {
		kind              Kind
		at5x6x2           uint64
		at10x6x1          uint64
		pooled5, pooled10 uint64
	}{
		{KindSeparableIF, 480, 648, 56, 66},
		{KindWavefront, 864, 1456, 46, 47},
		{KindAugmentingPath, 936, 1584, 46, 47},
		{KindPacketChaining, 640, 808, 84, 94},
		{KindIdeal, 576, 888, 78, 120},
		{KindISLIP, 1008, 1656, 66, 77},
		{KindSparoflo, 568, 832, 57, 76},
		{KindSeparableAge, 480, 648, 56, 66},
	}
	if len(pins) != len(Kinds()) {
		t.Fatalf("%d pins for %d kinds", len(pins), len(Kinds()))
	}
	for _, p := range pins {
		for _, c := range []struct {
			cfg         Config
			pin, pooled uint64
		}{
			{Config{Ports: 5, VCs: 6, VirtualInputs: 2}, p.at5x6x2, p.pooled5},
			{Config{Ports: 10, VCs: 6, VirtualInputs: 1}, p.at10x6x1, p.pooled10},
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
			if got := pooledBytes(p.kind, c.cfg); got > c.pooled {
				t.Errorf("%s at %dx%dx%d: %d B per pooled instance, pinned at %d B",
					p.kind, c.cfg.Ports, c.cfg.VCs, c.cfg.VirtualInputs, got, c.pooled)
			} else {
				t.Logf("%s at %dx%dx%d: %d B per pooled instance (pin %d B)",
					p.kind, c.cfg.Ports, c.cfg.VCs, c.cfg.VirtualInputs, got, c.pooled)
			}
		}
	}
}

// pooledBytes returns the bytes one NewMany call of 1024 instances of
// kind on cfg allocates per instance: the least of three calls.
func pooledBytes(kind Kind, cfg Config) uint64 {
	const n = 1024
	var keep []Allocator
	least := uint64(1 << 63)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		keep, _ = NewMany(kind, cfg, n, 1)
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/n)
	}
	runtime.KeepAlive(keep)
	return least
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
