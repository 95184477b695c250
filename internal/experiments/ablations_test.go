package experiments

import (
	"context"
	"math"
	"strconv"
	"testing"

	"vix/internal/alloc"
	"vix/internal/harness"
	"vix/internal/router"
	"vix/internal/topology"
)

func ablationParams() Params {
	p := DefaultParams()
	p.Warmup = 500
	p.Measure = 1500
	return p
}

func TestAblatePolicies(t *testing.T) {
	rows, err := AblatePolicies(context.Background(), ablationParams(), []string{"uniform", "bitcomp"}, harness.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	get := func(pattern string, pol router.PolicyKind) float64 {
		for _, r := range rows {
			if r.Pattern == pattern && r.Policy == pol {
				return r.Throughput
			}
		}
		t.Fatalf("missing %s/%s", pattern, pol)
		return 0
	}
	// On the adversarial bit-complement pattern the dimension-aware
	// policies must not lose to blind maxfree (they exist to win there).
	if get("bitcomp", router.PolicyDimension) < 0.98*get("bitcomp", router.PolicyMaxFree) {
		t.Errorf("dimension policy lost to maxfree on bitcomp: %.4f vs %.4f",
			get("bitcomp", router.PolicyDimension), get("bitcomp", router.PolicyMaxFree))
	}
	for _, r := range rows {
		if r.Throughput <= 0 {
			t.Errorf("%s/%s produced no throughput", r.Pattern, r.Policy)
		}
	}
}

func TestAblatePartition(t *testing.T) {
	rows, err := AblatePartition(context.Background(), ablationParams(), harness.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 topologies x 2 partitions
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	// Both partitions must be functional and within 15% of each other:
	// the partition choice is a wiring detail, not a performance cliff.
	byTopo := map[string]map[alloc.Partition]float64{}
	for _, r := range rows {
		if byTopo[r.Topology] == nil {
			byTopo[r.Topology] = map[alloc.Partition]float64{}
		}
		byTopo[r.Topology][r.Partition] = r.Throughput
	}
	for topo, m := range byTopo {
		c, i := m[alloc.Contiguous], m[alloc.Interleaved]
		if c <= 0 || i <= 0 {
			t.Fatalf("%s: zero throughput (contiguous %.4f, interleaved %.4f)", topo, c, i)
		}
		ratio := c / i
		if ratio < 0.85 || ratio > 1.18 {
			t.Errorf("%s: partitions diverge: contiguous %.4f vs interleaved %.4f", topo, c, i)
		}
	}
}

func TestAblatePipeline(t *testing.T) {
	rows, err := AblatePipeline(context.Background(), ablationParams(), 0.03, harness.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	get := func(scheme string, hop int) PipelineAblationRow {
		for _, r := range rows {
			if r.Scheme == scheme && r.HopDelay == hop {
				return r
			}
		}
		t.Fatalf("missing %s/%d", scheme, hop)
		return PipelineAblationRow{}
	}
	// The 3-stage pipeline must have lower latency than 5-stage at equal
	// load; saturation throughput is pipeline-depth insensitive (the
	// bottleneck is allocation, not depth).
	for _, s := range []string{"IF", "VIX"} {
		if get(s, 3).AvgLatency >= get(s, 5).AvgLatency {
			t.Errorf("%s: 3-stage latency %.2f not below 5-stage %.2f",
				s, get(s, 3).AvgLatency, get(s, 5).AvgLatency)
		}
	}
	if vix, base := get("VIX", 5).Throughput, get("IF", 5).Throughput; vix < 1.05*base {
		t.Errorf("VIX gain vanished on 5-stage pipeline: %.4f vs %.4f", vix, base)
	}
}

func TestAblateVirtualInputs(t *testing.T) {
	p := ablationParams()
	rows, err := AblateVirtualInputs(context.Background(), p, harness.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 6 VCs: k = 1, 2, 3, 6 divide evenly.
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (k=1,2,3,6)", len(rows))
	}
	if rows[0].K != 1 || rows[len(rows)-1].K != 6 {
		t.Fatalf("k sweep endpoints wrong: %+v", rows)
	}
	// k=2 captures most of the ideal (k=6) gain — the paper's practical
	// argument for stopping at two virtual inputs.
	gain2 := rows[1].Throughput - rows[0].Throughput
	gain6 := rows[len(rows)-1].Throughput - rows[0].Throughput
	if gain6 <= 0 || gain2 < 0.6*gain6 {
		t.Errorf("k=2 captured %.0f%% of ideal gain, expected most of it (k1 %.4f, k2 %.4f, k6 %.4f)",
			100*gain2/gain6, rows[0].Throughput, rows[1].Throughput, rows[len(rows)-1].Throughput)
	}
}

func TestAblateAllocators(t *testing.T) {
	rows, err := AblateAllocators(context.Background(), ablationParams(), harness.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	thr := map[string]float64{}
	for _, r := range rows {
		thr[r.Scheme] = r.Throughput
		if r.Throughput <= 0 {
			t.Fatalf("%s produced no throughput", r.Scheme)
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
	rows, err := AblateSpeculation(context.Background(), ablationParams(), 0.03, harness.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	get := func(scheme string, nonSpec bool) SpeculationAblationRow {
		for _, r := range rows {
			if r.Scheme == scheme && r.NonSpeculative == nonSpec {
				return r
			}
		}
		t.Fatalf("missing %s/%v", scheme, nonSpec)
		return SpeculationAblationRow{}
	}
	// Speculation reduces latency (heads skip a cycle per hop) and must
	// not reduce throughput.
	for _, s := range []string{"IF", "VIX"} {
		spec, nonSpec := get(s, false), get(s, true)
		if spec.AvgLatency >= nonSpec.AvgLatency {
			t.Errorf("%s: speculative latency %.2f not below non-speculative %.2f",
				s, spec.AvgLatency, nonSpec.AvgLatency)
		}
		if spec.Throughput < 0.95*nonSpec.Throughput {
			t.Errorf("%s: speculation lost throughput: %.4f vs %.4f", s, spec.Throughput, nonSpec.Throughput)
		}
	}
	// VIX gain survives without speculation.
	if vix, base := get("VIX", true).Throughput, get("IF", true).Throughput; vix < 1.05*base {
		t.Errorf("VIX gain vanished non-speculatively: %.4f vs %.4f", vix, base)
	}
}

// TestVIXGainExceedsSeedSpread: the VIX gain at saturation is not a
// single-seed fluke. IF and VIX on a 4x4 mesh at max injection, each
// under root seeds 1-4 used as given, run as one grid; the gap between
// the two means is at least twice the sum of their sample deviations.
func TestVIXGainExceedsSeedSpread(t *testing.T) {
	p := ablationParams()
	topo := topology.NewMesh(4, 4)
	seeds := []uint64{1, 2, 3, 4}
	schemes := []Scheme{NetworkSchemes()[0], NetworkSchemes()[3]}
	var grid []GridPoint
	for _, s := range schemes {
		for _, seed := range seeds {
			p.Seed = seed
			grid = append(grid, GridPoint{
				Labels: []string{"seeds", s.Label, strconv.FormatUint(seed, 10)},
				Spec:   experiment(topo, s, p, 0, true),
			})
		}
	}
	snaps, err := RunGrid(context.Background(), grid, harness.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
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
