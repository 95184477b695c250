package experiments

import (
	"math"
	"strconv"
	"testing"

	"vix/internal/config"
	"vix/internal/topology"
)

func ablationBase() config.Experiment {
	b := config.Default()
	b.Warmup, b.Measure = 500, 1500
	return b
}

func TestAblatePolicies(t *testing.T) {
	grid := PoliciesGrid(ablationBase(), []string{"uniform", "bitcomp"})
	if len(grid) != 6 {
		t.Fatalf("points = %d, want 6", len(grid))
	}
	snaps, by := simulate(t, grid)
	get := func(pattern, pol string) float64 {
		snap, ok := by["ablate/policies/"+pattern+"/"+pol]
		if !ok {
			t.Fatalf("missing %s/%s", pattern, pol)
		}
		return snap.ThroughputFlits
	}
	// On the adversarial bit-complement pattern the dimension-aware
	// policies must not lose to blind maxfree (they exist to win there).
	if get("bitcomp", "dimension") < 0.98*get("bitcomp", "maxfree") {
		t.Errorf("dimension policy lost to maxfree on bitcomp: %.4f vs %.4f",
			get("bitcomp", "dimension"), get("bitcomp", "maxfree"))
	}
	for i, g := range grid {
		if snaps[i].ThroughputFlits <= 0 {
			t.Errorf("%s/%s produced no throughput", g.Spec.Pattern, g.Spec.Policy)
		}
	}
}

func TestAblatePartition(t *testing.T) {
	grid := PartitionGrid(ablationBase())
	if len(grid) != 6 { // 3 topologies x 2 partitions
		t.Fatalf("points = %d, want 6", len(grid))
	}
	snaps, _ := simulate(t, grid)
	// Both partitions must be functional and within 15% of each other:
	// the partition choice is a wiring detail, not a performance cliff.
	byTopo := map[string]map[string]float64{}
	for i, g := range grid {
		if byTopo[g.Labels[2]] == nil {
			byTopo[g.Labels[2]] = map[string]float64{}
		}
		byTopo[g.Labels[2]][g.Spec.Resolved().Partition] = snaps[i].ThroughputFlits
	}
	for topo, m := range byTopo {
		c, i := m["contiguous"], m["interleaved"]
		if c <= 0 || i <= 0 {
			t.Fatalf("%s: zero throughput (contiguous %.4f, interleaved %.4f)", topo, c, i)
		}
		ratio := c / i
		if ratio < 0.85 || ratio > 1.18 {
			t.Errorf("%s: partitions diverge: contiguous %.4f vs interleaved %.4f", topo, c, i)
		}
	}
}

// probed is one row of the pipeline and speculation studies: latency at
// the probe rate and throughput at saturation of a (scheme, variant).
type probed struct{ latency, throughput float64 }

// pairs reads a probe-and-saturate grid into its rows, keyed by scheme
// and variant.
func pairs(t *testing.T, grid []GridPoint) map[string]probed {
	t.Helper()
	snaps, _ := simulate(t, grid)
	rows := map[string]probed{}
	for i := 0; i < len(grid); i += 2 {
		g := grid[i]
		rows[g.Labels[2]+"/"+g.Labels[3]] = probed{snaps[i].AvgLatency, snaps[i+1].ThroughputFlits}
	}
	return rows
}

func TestAblatePipeline(t *testing.T) {
	grid := PipelineGrid(ablationBase(), 0.03)
	if len(grid) != 8 {
		t.Fatalf("points = %d, want 8", len(grid))
	}
	rows := pairs(t, grid)
	get := func(scheme string, hop int) probed {
		r, ok := rows[scheme+"/"+strconv.Itoa(hop)]
		if !ok {
			t.Fatalf("missing %s/%d", scheme, hop)
		}
		return r
	}
	// The 3-stage pipeline must have lower latency than 5-stage at equal
	// load; saturation throughput is pipeline-depth insensitive (the
	// bottleneck is allocation, not depth).
	for _, s := range []string{"IF", "VIX"} {
		if get(s, 3).latency >= get(s, 5).latency {
			t.Errorf("%s: 3-stage latency %.2f not below 5-stage %.2f",
				s, get(s, 3).latency, get(s, 5).latency)
		}
	}
	if vix, base := get("VIX", 5).throughput, get("IF", 5).throughput; vix < 1.05*base {
		t.Errorf("VIX gain vanished on 5-stage pipeline: %.4f vs %.4f", vix, base)
	}
}

func TestAblateVirtualInputs(t *testing.T) {
	grid := KSweepGrid(ablationBase())
	// 6 VCs: k = 1, 2, 3, 6 divide evenly.
	if len(grid) != 4 {
		t.Fatalf("points = %d, want 4 (k=1,2,3,6)", len(grid))
	}
	if grid[0].Spec.VirtualInputs != 1 || grid[3].Spec.VirtualInputs != 6 {
		t.Fatalf("k sweep endpoints wrong: %d, %d", grid[0].Spec.VirtualInputs, grid[3].Spec.VirtualInputs)
	}
	snaps, _ := simulate(t, grid)
	// k=2 captures most of the ideal (k=6) gain — the paper's practical
	// argument for stopping at two virtual inputs.
	k1, k2, k6 := snaps[0].ThroughputFlits, snaps[1].ThroughputFlits, snaps[3].ThroughputFlits
	gain2, gain6 := k2-k1, k6-k1
	if gain6 <= 0 || gain2 < 0.6*gain6 {
		t.Errorf("k=2 captured %.0f%% of ideal gain, expected most of it (k1 %.4f, k2 %.4f, k6 %.4f)",
			100*gain2/gain6, k1, k2, k6)
	}
}

func TestAblateAllocators(t *testing.T) {
	grid := AllocatorsGrid(ablationBase())
	snaps, _ := simulate(t, grid)
	thr := map[string]float64{}
	for i, g := range grid {
		thr[g.Labels[2]] = snaps[i].ThroughputFlits
		if snaps[i].ThroughputFlits <= 0 {
			t.Fatalf("%s produced no throughput", g.Labels[2])
		}
	}
	if thr["iSLIP-2"] < thr["IF"] {
		t.Errorf("2-iteration iSLIP (%.4f) below single-pass IF (%.4f)", thr["iSLIP-2"], thr["IF"])
	}
	if thr["SPAROFLO"] < 0.98*thr["IF"] {
		t.Errorf("SPAROFLO (%.4f) clearly below IF (%.4f)", thr["SPAROFLO"], thr["IF"])
	}
	if thr["VIX"] < thr["SPAROFLO"] {
		t.Errorf("VIX (%.4f) below SPAROFLO (%.4f): virtual inputs should cash in exposed requests", thr["VIX"], thr["SPAROFLO"])
	}
}

func TestAblateSpeculation(t *testing.T) {
	grid := SpeculationGrid(ablationBase(), 0.03)
	if len(grid) != 8 {
		t.Fatalf("points = %d, want 8", len(grid))
	}
	rows := pairs(t, grid)
	get := func(scheme, mode string) probed {
		r, ok := rows[scheme+"/"+mode]
		if !ok {
			t.Fatalf("missing %s/%s", scheme, mode)
		}
		return r
	}
	// Speculation reduces latency (heads skip a cycle per hop) and must
	// not reduce throughput.
	for _, s := range []string{"IF", "VIX"} {
		spec, nonSpec := get(s, "spec"), get(s, "nonspec")
		if spec.latency >= nonSpec.latency {
			t.Errorf("%s: speculative latency %.2f not below non-speculative %.2f",
				s, spec.latency, nonSpec.latency)
		}
		if spec.throughput < 0.95*nonSpec.throughput {
			t.Errorf("%s: speculation lost throughput: %.4f vs %.4f", s, spec.throughput, nonSpec.throughput)
		}
	}
	// VIX gain survives without speculation.
	if vix, base := get("VIX", "nonspec").throughput, get("IF", "nonspec").throughput; vix < 1.05*base {
		t.Errorf("VIX gain vanished non-speculatively: %.4f vs %.4f", vix, base)
	}
}

// TestVIXGainExceedsSeedSpread: the VIX gain at saturation is not a
// single-seed fluke. IF and VIX on a 4x4 mesh at max injection, each
// under root seeds 1-4 used as given, run as one grid; the gap between
// the two means is at least twice the sum of their sample deviations.
func TestVIXGainExceedsSeedSpread(t *testing.T) {
	base := ablationBase()
	topo := topology.NewMesh(4, 4)
	seeds := []uint64{1, 2, 3, 4}
	schemes := []scheme{networkSchemes()[0], networkSchemes()[3]}
	var grid []GridPoint
	for _, s := range schemes {
		for _, seed := range seeds {
			base.Seed = seed
			grid = append(grid, GridPoint{
				Labels: []string{"seeds", s.Label, strconv.FormatUint(seed, 10)},
				Spec:   experiment(base, topo, s, 0, true),
			})
		}
	}
	snaps, _ := simulate(t, grid)
	var thr [2][]float64
	for i, snap := range snaps {
		thr[i/len(seeds)] = append(thr[i/len(seeds)], snap.ThroughputFlits)
	}
	baseMean, baseSD := meanSD(thr[0])
	vixMean, vixSD := meanSD(thr[1])
	if vixMean-baseMean < 2*(baseSD+vixSD) {
		t.Fatalf("VIX gain within noise: IF %.4f±%.4f vs VIX %.4f±%.4f", baseMean, baseSD, vixMean, vixSD)
	}
}

// meanSD returns the mean and the sample standard deviation of vs.
func meanSD(vs []float64) (mean, sd float64) {
	for _, v := range vs {
		mean += v
	}
	mean /= float64(len(vs))
	for _, v := range vs {
		sd += (v - mean) * (v - mean)
	}
	return mean, math.Sqrt(sd / float64(len(vs)-1))
}
