package experiments

import (
	"testing"

	"vix/internal/manycore"
	"vix/internal/trace"
)

// Table 4's qualitative shape on shortened windows: VIX never slows a
// mix down meaningfully, speeds up the most memory-intensive mix the
// most, and the measured average MPKI column matches the paper.
func TestTable4Shape(t *testing.T) {
	p := DefaultParams()
	p.Warmup = 800
	p.Measure = 3000
	rows, err := Table4(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("Table4 has %d rows, want 8", len(rows))
	}
	var maxSpeedup float64
	for _, r := range rows {
		if r.Speedup < 0.985 {
			t.Errorf("%s: VIX slowed the system down: %.3f", r.Mix, r.Speedup)
		}
		if r.Speedup > maxSpeedup {
			maxSpeedup = r.Speedup
		}
		if r.IPCBase <= 0 || r.IPCVIX <= 0 {
			t.Errorf("%s: non-positive IPC (%.1f, %.1f)", r.Mix, r.IPCBase, r.IPCVIX)
		}
		// Measured MPKI column is the catalog value, which is calibrated
		// to the paper within ~1%.
		if diff := r.AvgMPKI - r.PaperMPKI; diff > 1 || diff < -1 {
			t.Errorf("%s: avg MPKI %.1f vs paper %.1f", r.Mix, r.AvgMPKI, r.PaperMPKI)
		}
	}
	if maxSpeedup < 1.02 {
		t.Errorf("no mix gained at least 2%%: max speedup %.3f", maxSpeedup)
	}
	// The most memory-intensive mixes benefit more than the least.
	loGain := rows[0].Speedup // Mix1, 15 MPKI
	hiGain := rows[7].Speedup // Mix8, 67 MPKI
	if hiGain <= loGain {
		t.Errorf("Mix8 speedup %.3f not above Mix1 %.3f", hiGain, loGain)
	}
}

// RunMixDetailed is usable directly for a single mix and scheme.
func TestRunMixDirect(t *testing.T) {
	p := DefaultParams()
	p.Warmup = 300
	p.Measure = 1000
	ipcs, lat, err := RunMixDetailed(trace.Mixes()[0], NetworkSchemes()[0], p, manycore.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(ipcs) != 64 {
		t.Fatalf("RunMixDetailed returned %d cores", len(ipcs))
	}
	if lat <= 0 {
		t.Fatalf("average memory latency %v, want positive", lat)
	}
	for i, v := range ipcs {
		if v <= 0 || v > 2.0001 {
			t.Fatalf("core %d IPC %v out of (0, 2]", i, v)
		}
	}
}
