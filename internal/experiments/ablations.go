package experiments

import (
	"context"
	"slices"
	"strconv"

	"vix/internal/alloc"
	"vix/internal/config"
	"vix/internal/harness"
	"vix/internal/router"
	"vix/internal/stats"
	"vix/internal/topology"
)

// The ablation studies isolate the design choices DESIGN.md calls out:
// the Section 2.3 VC-assignment policy, the VC-to-sub-group partition,
// the pipeline depth, the number of virtual inputs, and the choice of
// allocation scheme (including iSLIP and SPAROFLO from the paper's
// citations and related work).
//
// Every study is a label-seeded grid (point) run through RunGrid, so
// each takes a context and harness.Options for parallel, resumable
// execution; Parallel 1 is the one-point-at-a-time form.

// PolicyAblationRow is the saturation throughput of one (pattern,
// policy) pair on the VIX mesh.
type PolicyAblationRow struct {
	Pattern    string
	Policy     router.PolicyKind
	Throughput float64
}

func policiesGrid(p Params, patterns []string) []GridPoint {
	if patterns == nil {
		patterns = []string{"uniform", "transpose", "tornado", "bitcomp"}
	}
	topo, vix := topology.NewMesh(8, 8), NetworkSchemes()[3]
	var pts []GridPoint
	for _, name := range patterns {
		for _, pol := range []router.PolicyKind{router.PolicyMaxFree, router.PolicyDimension, router.PolicyBalanced} {
			vix.Policy = pol
			e := experiment(topo, vix, p, 0, true)
			e.Pattern = name
			pts = append(pts, point(e, "ablate", "policies", name, e.Policy))
		}
	}
	return pts
}

// AblatePolicies measures the Section 2.3 VC-assignment policies on a
// saturated 8x8 VIX mesh across traffic patterns, including the
// adversarial ones the paper's Section 2.3 targets.
func AblatePolicies(ctx context.Context, p Params, patterns []string, opt harness.Options) ([]PolicyAblationRow, error) {
	return gridRows(ctx, opt, policiesGrid(p, patterns), func(g GridPoint, snap stats.Snapshot) PolicyAblationRow {
		return PolicyAblationRow{Pattern: g.Spec.Pattern, Policy: router.PolicyKind(g.Spec.Policy), Throughput: snap.ThroughputFlits}
	})
}

// PartitionAblationRow compares VC partitions for one topology.
type PartitionAblationRow struct {
	Topology   string
	Partition  alloc.Partition
	Throughput float64
}

// partitions are the two VC-to-sub-group assignments, in alloc.Partition
// order, by their config.Experiment names.
var partitions = []string{alloc.Contiguous: "contiguous", alloc.Interleaved: "interleaved"}

func partitionGrid(p Params) []GridPoint {
	var pts []GridPoint
	for _, topo := range Topologies() {
		for part, name := range partitions {
			e := experiment(topo, NetworkSchemes()[3], p, 0, true) // VIX
			e.Partition = name
			pts = append(pts, point(e, "ablate", "partition", topo.Name, strconv.Itoa(part)))
		}
	}
	return pts
}

// AblatePartition compares the paper's contiguous VC sub-grouping with
// an interleaved assignment on saturated VIX networks.
func AblatePartition(ctx context.Context, p Params, opt harness.Options) ([]PartitionAblationRow, error) {
	return gridRows(ctx, opt, partitionGrid(p), func(g GridPoint, snap stats.Snapshot) PartitionAblationRow {
		part := alloc.Partition(slices.Index(partitions, g.Spec.Partition))
		return PartitionAblationRow{Topology: g.Labels[2], Partition: part, Throughput: snap.ThroughputFlits}
	})
}

// probeAndSaturate is the two points behind one row of the pipeline and
// speculation studies: latency at the probe rate, throughput at
// saturation, both of s on the mesh as adjusted by vary and labelled by
// the study and the variant.
func probeAndSaturate(study string, s Scheme, p Params, probeRate float64, variant string, vary func(*config.Experiment)) []GridPoint {
	topo := topology.NewMesh(8, 8)
	probe, sat := experiment(topo, s, p, probeRate, false), experiment(topo, s, p, 0, true)
	vary(&probe)
	vary(&sat)
	return []GridPoint{
		point(probe, "ablate", study, s.Label, variant, probe.OfferedLabel()),
		point(sat, "ablate", study, s.Label, variant, sat.OfferedLabel()),
	}
}

// PipelineAblationRow compares router pipeline depths.
type PipelineAblationRow struct {
	Scheme     string
	HopDelay   int
	AvgLatency float64 // at the probe rate
	Throughput float64 // at saturation
}

func pipelineGrid(p Params, probeRate float64) []GridPoint {
	var pts []GridPoint
	for _, s := range []Scheme{NetworkSchemes()[0], NetworkSchemes()[3]} {
		for _, hop := range []int{3, 5} {
			pts = append(pts, probeAndSaturate("pipeline", s, p, probeRate, strconv.Itoa(hop),
				func(e *config.Experiment) { e.HopDelay = hop })...)
		}
	}
	return pts
}

// AblatePipeline compares the paper's optimised 3-stage pipeline (Figure
// 6b) against the conventional 5-stage pipeline (Figure 6a) for baseline
// and VIX: latency at a moderate load and saturation throughput.
func AblatePipeline(ctx context.Context, p Params, probeRate float64, opt harness.Options) ([]PipelineAblationRow, error) {
	grid := pipelineGrid(p, probeRate)
	snaps, err := RunGrid(ctx, grid, opt)
	if err != nil {
		return nil, err
	}
	rows := make([]PipelineAblationRow, len(grid)/2)
	for i := range rows {
		g := grid[2*i]
		rows[i] = PipelineAblationRow{
			Scheme: g.Labels[2], HopDelay: g.Spec.HopDelay,
			AvgLatency: snaps[2*i].AvgLatency, Throughput: snaps[2*i+1].ThroughputFlits,
		}
	}
	return rows, nil
}

// SpeculationAblationRow compares speculative and non-speculative switch
// allocation.
type SpeculationAblationRow struct {
	Scheme         string
	NonSpeculative bool
	AvgLatency     float64 // at the probe rate
	Throughput     float64 // at saturation
}

func speculationGrid(p Params, probeRate float64) []GridPoint {
	var pts []GridPoint
	for _, s := range []Scheme{NetworkSchemes()[0], NetworkSchemes()[3]} {
		for _, nonSpec := range []bool{false, true} {
			mode := "spec"
			if nonSpec {
				mode = "nonspec"
			}
			pts = append(pts, probeAndSaturate("speculation", s, p, probeRate, mode,
				func(e *config.Experiment) { e.NonSpeculative = nonSpec })...)
		}
	}
	return pts
}

// AblateSpeculation compares the Figure 6b speculative pipeline (heads
// bid for the switch in the same cycle they win a VC) against a
// non-speculative variant that serialises VA before SA, for baseline and
// VIX on the mesh.
func AblateSpeculation(ctx context.Context, p Params, probeRate float64, opt harness.Options) ([]SpeculationAblationRow, error) {
	grid := speculationGrid(p, probeRate)
	snaps, err := RunGrid(ctx, grid, opt)
	if err != nil {
		return nil, err
	}
	rows := make([]SpeculationAblationRow, len(grid)/2)
	for i := range rows {
		g := grid[2*i]
		rows[i] = SpeculationAblationRow{
			Scheme: g.Labels[2], NonSpeculative: g.Spec.NonSpeculative,
			AvgLatency: snaps[2*i].AvgLatency, Throughput: snaps[2*i+1].ThroughputFlits,
		}
	}
	return rows, nil
}

// KSweepRow is the saturation throughput at one virtual-input count.
type KSweepRow struct {
	K          int
	Throughput float64
}

func ksweepGrid(p Params) []GridPoint {
	topo := topology.NewMesh(8, 8)
	var pts []GridPoint
	for k := 1; k <= p.VCs; k++ {
		if p.VCs%k != 0 {
			continue // only even partitions keep sub-groups comparable
		}
		s := Scheme{Kind: alloc.KindSeparableIF, K: k}
		pts = append(pts, point(experiment(topo, s, p, 0, true), "ablate", "ksweep", strconv.Itoa(k)))
	}
	return pts
}

// AblateVirtualInputs sweeps the virtual-input factor k from 1 to VCs on
// the mesh — a finer-grained version of Figure 12 that locates where the
// returns diminish.
func AblateVirtualInputs(ctx context.Context, p Params, opt harness.Options) ([]KSweepRow, error) {
	return gridRows(ctx, opt, ksweepGrid(p), func(g GridPoint, snap stats.Snapshot) KSweepRow {
		return KSweepRow{K: g.Spec.VirtualInputs, Throughput: snap.ThroughputFlits}
	})
}

// AllocAblationRow is the saturation throughput of one allocation scheme
// from the extended set.
type AllocAblationRow struct {
	Scheme     string
	Throughput float64
}

func allocatorsGrid(p Params) []GridPoint {
	topo := topology.NewMesh(8, 8)
	var pts []GridPoint
	for _, s := range []Scheme{
		{Label: "IF", Kind: alloc.KindSeparableIF, K: 1, Policy: router.PolicyMaxFree},
		{Label: "iSLIP-2", Kind: alloc.KindISLIP, K: 1, Policy: router.PolicyMaxFree},
		{Label: "SPAROFLO", Kind: alloc.KindSparoflo, K: 1, Policy: router.PolicyMaxFree},
		{Label: "WF", Kind: alloc.KindWavefront, K: 1, Policy: router.PolicyMaxFree},
		{Label: "AP", Kind: alloc.KindAugmentingPath, K: 1, Policy: router.PolicyMaxFree},
		{Label: "VIX", Kind: alloc.KindSeparableIF, K: 2, Policy: router.PolicyBalanced},
		{Label: "VIX-WF", Kind: alloc.KindWavefront, K: 2, Policy: router.PolicyBalanced},
		{Label: "VIX-age", Kind: alloc.KindSeparableAge, K: 2, Policy: router.PolicyBalanced},
	} {
		pts = append(pts, point(experiment(topo, s, p, 0, true), "ablate", "allocators", s.Label))
	}
	return pts
}

// AblateAllocators races the full allocator set — including iSLIP (the
// iterative allocator the paper cites) and SPAROFLO (related work) — on
// a saturated mesh.
func AblateAllocators(ctx context.Context, p Params, opt harness.Options) ([]AllocAblationRow, error) {
	return gridRows(ctx, opt, allocatorsGrid(p), func(g GridPoint, snap stats.Snapshot) AllocAblationRow {
		return AllocAblationRow{Scheme: g.Labels[2], Throughput: snap.ThroughputFlits}
	})
}
