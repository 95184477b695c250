package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"vix/internal/config"
	"vix/internal/harness"
	"vix/internal/stats"
	"vix/internal/topology"
)

// quickBase shrinks simulation windows so the whole experiment suite
// stays fast while preserving qualitative shapes.
func quickBase() config.Experiment {
	b := config.Default()
	b.Warmup, b.Measure = 800, 2500
	return b
}

// simulate runs grid on one worker and returns its snapshots in grid
// order and keyed by the point's labels joined with "/".
func simulate(t *testing.T, grid []GridPoint) ([]stats.Snapshot, map[string]stats.Snapshot) {
	t.Helper()
	snaps, err := RunGrid(context.Background(), grid, harness.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]stats.Snapshot{}
	for i, g := range grid {
		by[strings.Join(g.Labels, "/")] = snaps[i]
	}
	return snaps, by
}

func find7(rows []Fig7Row, radix int, scheme string) Fig7Row {
	for _, r := range rows {
		if r.Radix == radix && r.Scheme == scheme {
			return r
		}
	}
	panic("row not found")
}

func TestFigure7QualitativeShape(t *testing.T) {
	rows, err := Figure7(quickBase())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("Figure7 produced %d rows, want 15", len(rows))
	}
	for _, radix := range []int{5, 8, 10} {
		ap := find7(rows, radix, "AP")
		vix := find7(rows, radix, "VIX")
		ideal := find7(rows, radix, "Ideal")
		if ap.GainOverIF < 1.30 {
			t.Errorf("radix %d: AP gain %.3f < 1.30", radix, ap.GainOverIF)
		}
		if vix.GainOverIF < 1.20 {
			t.Errorf("radix %d: VIX gain %.3f < 1.20", radix, vix.GainOverIF)
		}
		if ideal.Efficiency > 1 {
			t.Errorf("radix %d: ideal efficiency %.3f > 1", radix, ideal.Efficiency)
		}
	}
}

func TestFigure8QualitativeShape(t *testing.T) {
	_, by := simulate(t, withLabel(Figure8Grid(quickBase()), 2, "0.02", "0.06", "saturation"))
	sat := func(s string) stats.Snapshot { return by["fig8/"+s+"/saturation"] }
	// Low-load latencies are nearly identical across schemes.
	ifLow := by["fig8/IF/0.02"].AvgLatency
	for _, s := range []string{"WF", "AP", "VIX"} {
		if lat := by["fig8/"+s+"/0.02"].AvgLatency; math.Abs(lat-ifLow) > 0.05*ifLow {
			t.Errorf("low-load latency of %s (%.2f) deviates from IF (%.2f)", s, lat, ifLow)
		}
	}
	// At saturation VIX beats IF and AP in throughput.
	if sat("VIX").ThroughputFlits < 1.08*sat("IF").ThroughputFlits {
		t.Errorf("VIX saturation throughput %.4f not >=8%% over IF %.4f", sat("VIX").ThroughputFlits, sat("IF").ThroughputFlits)
	}
	if sat("VIX").ThroughputFlits <= sat("AP").ThroughputFlits {
		t.Errorf("VIX %.4f did not beat AP %.4f at network level", sat("VIX").ThroughputFlits, sat("AP").ThroughputFlits)
	}
	// And VIX has lower latency at saturation.
	if sat("VIX").AvgLatency >= sat("IF").AvgLatency {
		t.Errorf("VIX saturation latency %.1f not below IF %.1f", sat("VIX").AvgLatency, sat("IF").AvgLatency)
	}
}

func TestFigure9Fairness(t *testing.T) {
	grid := Figure9Grid(quickBase())
	snaps, _ := simulate(t, grid)
	ratio := map[string]float64{}
	for i, g := range grid {
		ratio[g.Labels[1]] = snaps[i].FairnessRatio
	}
	// VIX achieves the best (lowest) max/min ratio of all schemes.
	for s, v := range ratio {
		if s == "VIX" {
			continue
		}
		if ratio["VIX"] > v {
			t.Errorf("VIX fairness %.2f worse than %s %.2f", ratio["VIX"], s, v)
		}
	}
	if math.IsInf(ratio["VIX"], 1) {
		t.Error("VIX starved a source entirely")
	}
}

func TestFigure10PacketChaining(t *testing.T) {
	grid := Figure10Grid(quickBase())
	if len(grid) != 5 {
		t.Fatalf("Figure 10 has %d schemes, want 5", len(grid))
	}
	_, by := simulate(t, grid)
	gain := func(s string) float64 { return by["fig10/"+s].ThroughputFlits / by["fig10/IF"].ThroughputFlits }
	if gain("PC") <= 1.0 {
		t.Errorf("PC gain %.3f not above IF", gain("PC"))
	}
	if gain("VIX") <= gain("PC") {
		t.Errorf("VIX gain %.3f not above PC gain %.3f (the Section 4.4 conclusion)", gain("VIX"), gain("PC"))
	}
}

func TestFigure11Energy(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	grid := EnergyGrid(quickBase(), topo, 0.1)
	if len(grid) != 2 {
		t.Fatalf("Figure 11 has %d points, want 2", len(grid))
	}
	snaps, _ := simulate(t, grid)
	bs, err := Energy(topo, grid, snaps)
	if err != nil {
		t.Fatal(err)
	}
	base, vix := bs[0], bs[1]
	ratio := vix.Total / base.Total
	if ratio < 1.005 || ratio > 1.10 {
		t.Errorf("VIX energy overhead ratio %.4f outside (1.005, 1.10); paper ~1.04", ratio)
	}
	if vix.Switch <= base.Switch {
		t.Error("switch energy did not grow with VIX")
	}
}

func TestFigure12VirtualInputs(t *testing.T) {
	b := quickBase()
	b.Warmup, b.Measure = 500, 1500
	grid := Figure12Grid(b)
	if len(grid) != 18 { // 3 topologies x 2 VC counts x 3 configs
		t.Fatalf("Figure12 has %d points, want 18", len(grid))
	}
	_, by := simulate(t, grid)
	get := func(topo string, vcs, cfg string) float64 {
		snap, ok := by["fig12/"+topo+"/"+vcs+"/"+cfg]
		if !ok {
			t.Fatalf("missing point %s/%s/%s", topo, vcs, cfg)
		}
		return snap.ThroughputFlits
	}
	for _, topo := range []string{"mesh8x8", "cmesh4x4c4", "fbfly4x4c4"} {
		for _, vcs := range []string{"4", "6"} {
			no := get(topo, vcs, "no VIX")
			vix := get(topo, vcs, "1:2 VIX")
			if vix < 1.05*no {
				t.Errorf("%s %sVC: 1:2 VIX %.4f not >=5%% over no VIX %.4f", topo, vcs, vix, no)
			}
		}
	}
	// Buffer-reduction claim (paper Section 4.6): 4 VCs with VIX beat 6
	// VCs without on the mesh by more than 10 %, with a third fewer buffers.
	if v4, n6 := get("mesh8x8", "4", "1:2 VIX"), get("mesh8x8", "6", "no VIX"); v4 < 1.10*n6 {
		t.Errorf("mesh: 4VC VIX %.4f not >=10%% over 6VC baseline %.4f", v4, n6)
	}
}
