package topology

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestWiringFootprintIsPinned holds a port's wiring to 12 bytes and
// NewMesh(16, 16) — mesh16_low's network — to its heap bytes per router:
// a slice header and five ports of the one slab, the grid coordinates,
// and the node tables of its terminal. Bytes are TotalAlloc's, the least
// of three builds.
func TestWiringFootprintIsPinned(t *testing.T) {
	if size := unsafe.Sizeof(PortConn{}); size != 12 {
		t.Errorf("PortConn is %d B, pinned at 12 B", size)
	}
	if raceBuild {
		t.Skip("the race detector pads heap objects; the pin is a normal build's bytes")
	}
	const pin = 114
	least := uint64(1 << 63)
	var keep *Topology
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		keep = NewMesh(16, 16)
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/uint64(keep.NumRouters))
	}
	runtime.KeepAlive(keep)
	if least > pin {
		t.Errorf("NewMesh(16, 16): %d B per router, pinned at %d B", least, pin)
	}
}

// TestNewRefusesWhatPortConnCannotName: a radix past MaxRadix or more
// nodes than an int32 names is an error, before anything is built.
func TestNewRefusesWhatPortConnCannotName(t *testing.T) {
	if _, err := New(KindFBfly, 100, 28, 1); err != nil {
		t.Errorf("radix %d refused: %v", MaxRadix, err)
	}
	if _, err := New(KindFBfly, 100, 29, 1); err == nil {
		t.Errorf("radix %d accepted", MaxRadix+1)
	}
	if _, err := New(KindMesh, 1<<16, 1<<15, 1); err == nil {
		t.Error("2^31 nodes accepted")
	}
}
