package experiments

import (
	"strconv"

	"vix/internal/alloc"
	"vix/internal/config"
	"vix/internal/router"
	"vix/internal/topology"
)

// The ablation studies isolate the design choices DESIGN.md calls out:
// the Section 2.3 VC-assignment policy, the VC-to-sub-group partition,
// the pipeline depth, the number of virtual inputs, and the choice of
// allocation scheme (including iSLIP and SPAROFLO from the paper's
// citations and related work). Every study is a label-seeded grid
// (point) labelled {"ablate", study, ...}.

// PoliciesGrid builds the Section 2.3 VC-assignment policies on a
// saturated 8x8 VIX mesh under uniform traffic and the adversarial
// transpose, tornado and bitcomp patterns the section targets.
func PoliciesGrid(base config.Experiment) []GridPoint {
	topo, vix := topology.NewMesh(8, 8), networkSchemes()[3]
	var pts []GridPoint
	for _, name := range []string{"uniform", "transpose", "tornado", "bitcomp"} {
		for _, pol := range router.Policies() {
			vix.Policy = pol
			e := experiment(base, topo, vix, 0, true)
			e.Pattern = name
			pts = append(pts, point(e, "ablate", "policies", name, e.Policy))
		}
	}
	return pts
}

// PartitionGrid builds the paper's contiguous VC sub-grouping against an
// interleaved one on each saturated VIX topology.
func PartitionGrid(base config.Experiment) []GridPoint {
	var pts []GridPoint
	for _, topo := range Topologies() {
		for _, part := range alloc.Partitions() {
			e := experiment(base, topo, networkSchemes()[3], 0, true) // VIX
			e.Partition = part.String()
			pts = append(pts, point(e, "ablate", "partition", topo.Name, strconv.Itoa(int(part))))
		}
	}
	return pts
}

// ProbeRate is the offered load, in packets/cycle/node, at which the
// pipeline and speculation studies read latency.
const ProbeRate = 0.05

// probeAndSaturate is the two points behind one row of the pipeline and
// speculation studies: latency at ProbeRate, throughput at saturation,
// both of s on the mesh as adjusted by vary and labelled by the study,
// the scheme and the variant.
func probeAndSaturate(study string, s scheme, base config.Experiment, variant string, vary func(*config.Experiment)) []GridPoint {
	topo := topology.NewMesh(8, 8)
	probe, sat := experiment(base, topo, s, ProbeRate, false), experiment(base, topo, s, 0, true)
	vary(&probe)
	vary(&sat)
	return []GridPoint{
		point(probe, "ablate", study, s.Label, variant, probe.OfferedLabel()),
		point(sat, "ablate", study, s.Label, variant, sat.OfferedLabel()),
	}
}

// PipelineGrid builds the paper's optimised 3-stage pipeline (Figure 6b)
// against the conventional 5-stage one (Figure 6a) for baseline and VIX:
// a probe point then a saturation point per (scheme, hop delay).
func PipelineGrid(base config.Experiment) []GridPoint {
	var pts []GridPoint
	for _, s := range []scheme{networkSchemes()[0], networkSchemes()[3]} {
		for _, hop := range []int{3, 5} {
			pts = append(pts, probeAndSaturate("pipeline", s, base, strconv.Itoa(hop),
				func(e *config.Experiment) { e.HopDelay = hop })...)
		}
	}
	return pts
}

// SpeculationGrid builds the Figure 6b speculative pipeline (heads bid
// for the switch in the same cycle they win a VC) against a
// non-speculative one that serialises VA before SA, for baseline and VIX:
// a probe point then a saturation point per (scheme, mode).
func SpeculationGrid(base config.Experiment) []GridPoint {
	var pts []GridPoint
	for _, s := range []scheme{networkSchemes()[0], networkSchemes()[3]} {
		for _, nonSpec := range []bool{false, true} {
			mode := "spec"
			if nonSpec {
				mode = "nonspec"
			}
			pts = append(pts, probeAndSaturate("speculation", s, base, mode,
				func(e *config.Experiment) { e.NonSpeculative = nonSpec })...)
		}
	}
	return pts
}

// KSweepGrid builds the virtual-input factor k from 1 to base's VCs on a
// saturated mesh — a finer-grained Figure 12 that locates where the
// returns diminish.
func KSweepGrid(base config.Experiment) []GridPoint {
	topo := topology.NewMesh(8, 8)
	var pts []GridPoint
	for k := 1; k <= base.VCs; k++ {
		if base.VCs%k != 0 {
			continue // only even partitions keep sub-groups comparable
		}
		s := scheme{Kind: alloc.KindSeparableIF, K: k}
		pts = append(pts, point(experiment(base, topo, s, 0, true), "ablate", "ksweep", strconv.Itoa(k)))
	}
	return pts
}

// AllocatorsGrid builds the full allocator set — including iSLIP (the
// iterative allocator the paper cites) and SPAROFLO (related work) — on
// a saturated mesh, IF first. IF, WF, AP and VIX are the Section 4.1
// schemes as networkSchemes states them.
func AllocatorsGrid(base config.Experiment) []GridPoint {
	topo, ns := topology.NewMesh(8, 8), networkSchemes()
	var pts []GridPoint
	for _, s := range []scheme{
		ns[0],
		{Label: "iSLIP-2", Kind: alloc.KindISLIP, K: 1, Policy: router.PolicyMaxFree},
		{Label: "SPAROFLO", Kind: alloc.KindSparoflo, K: 1, Policy: router.PolicyMaxFree},
		ns[1], ns[2], ns[3],
		{Label: "VIX-WF", Kind: alloc.KindWavefront, K: 2, Policy: router.PolicyBalanced},
		{Label: "VIX-age", Kind: alloc.KindSeparableAge, K: 2, Policy: router.PolicyBalanced},
	} {
		pts = append(pts, point(experiment(base, topo, s, 0, true), "ablate", "allocators", s.Label))
	}
	return pts
}
