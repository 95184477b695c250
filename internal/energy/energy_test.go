package energy

import (
	"testing"

	"vix/internal/stats"
)

// snapshotFor synthesises activity counters for a mesh at a given load:
// per flit, hops+1 buffer writes/reads and crossbar traversals, hops link
// traversals.
func snapshotFor(flits int64, avgHops float64, cycles int64) stats.Snapshot {
	perFlitStops := avgHops + 1
	return stats.Snapshot{
		Cycles:         cycles,
		FlitsEjected:   flits,
		BufferWrites:   int64(float64(flits) * perFlitStops),
		BufferReads:    int64(float64(flits) * perFlitStops),
		XbarTraversals: int64(float64(flits) * perFlitStops),
		LinkTraversals: int64(float64(flits) * avgHops),
	}
}

func meshNetwork(k int) Network {
	return Network{Routers: 64, Radix: 5, K: k}
}

// Figure 11's headline: at the paper's operating point (0.1
// packets/cycle/node, 4-flit packets, 8x8 mesh) VIX increases total
// energy per bit by about 4% (the paper reports 4%).
func TestVIXEnergyOverheadNearFourPercent(t *testing.T) {
	// 0.1 packets/node/cycle * 64 nodes * 4 flits = 25.6 flits/cycle;
	// over 10000 cycles: 256000 flits at 5.33 average hops.
	s := snapshotFor(256000, 5.33, 10000)
	base, err := PerBit(s, meshNetwork(1))
	if err != nil {
		t.Fatal(err)
	}
	vix, err := PerBit(s, meshNetwork(2))
	if err != nil {
		t.Fatal(err)
	}
	ratio := vix.Total / base.Total
	if ratio < 1.02 || ratio > 1.07 {
		t.Fatalf("VIX/base energy ratio = %.4f, paper reports ~1.04", ratio)
	}
	// The increase must come primarily from the switch.
	if vix.Switch <= base.Switch {
		t.Fatal("VIX switch energy did not increase")
	}
	if vix.Link != base.Link || vix.Buffer != base.Buffer {
		t.Fatal("link/buffer energy should not change with VIX at equal activity")
	}
}

// Switch energy scales 1.5x for the mesh VIX crossbar (15 port units vs
// 10).
func TestSwitchEnergyScaling(t *testing.T) {
	s := snapshotFor(1000, 5.33, 100)
	base, _ := PerBit(s, meshNetwork(1))
	vix, _ := PerBit(s, meshNetwork(2))
	if ratio := vix.Switch / base.Switch; ratio < 1.49 || ratio > 1.51 {
		t.Fatalf("switch energy ratio %.3f, want 1.5", ratio)
	}
}

// Component shares at the calibration point are plausible NoC shares:
// link largest, then buffer, clock, leakage, switch smallest.
func TestComponentShares(t *testing.T) {
	s := snapshotFor(256000, 5.33, 10000)
	b, err := PerBit(s, meshNetwork(1))
	if err != nil {
		t.Fatal(err)
	}
	if b.Total <= 0 {
		t.Fatal("non-positive total")
	}
	share := func(x float64) float64 { return x / b.Total }
	if share(b.Link) < 0.25 || share(b.Link) > 0.50 {
		t.Errorf("link share %.2f out of plausible range", share(b.Link))
	}
	if share(b.Buffer) < 0.20 || share(b.Buffer) > 0.40 {
		t.Errorf("buffer share %.2f out of plausible range", share(b.Buffer))
	}
	if share(b.Switch) < 0.04 || share(b.Switch) > 0.15 {
		t.Errorf("switch share %.2f out of plausible range", share(b.Switch))
	}
	sum := b.Buffer + b.Switch + b.Link + b.Clock + b.Leakage
	if diff := sum - b.Total; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("components sum %.6f != total %.6f", sum, b.Total)
	}
}

// Lower utilisation raises energy per bit (fixed clock/leakage amortised
// over fewer bits).
func TestEnergyPerBitRisesAtLowLoad(t *testing.T) {
	busy, _ := PerBit(snapshotFor(256000, 5.33, 10000), meshNetwork(1))
	idle, _ := PerBit(snapshotFor(25600, 5.33, 10000), meshNetwork(1))
	if idle.Total <= busy.Total {
		t.Fatalf("energy/bit at low load %.3f not above high load %.3f", idle.Total, busy.Total)
	}
}

func TestPerBitErrors(t *testing.T) {
	if _, err := PerBit(stats.Snapshot{}, meshNetwork(1)); err == nil {
		t.Error("empty snapshot accepted")
	}
	if _, err := PerBit(snapshotFor(100, 5, 10), Network{Routers: 0, Radix: 5, K: 1}); err == nil {
		t.Error("zero routers accepted")
	}
}
