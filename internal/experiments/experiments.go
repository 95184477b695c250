// Package experiments reproduces every table and figure of the paper's
// evaluation. The network figures and the ablation studies are grids:
// each *Grid function builds its config.Experiment points from a base
// spec, RunGrid fans them out through internal/harness (grid.go), and
// cmd/figures prints the snapshots. Figure 7, a router alone, and Table
// 4, whose manycore Workload a spec cannot express, are not grids and
// return rows.
//
// A base is the paper's configuration, config.Default (Section 3: 64
// nodes, 6 VCs x 5-flit buffers, 128-bit datapath, 4-flit packets,
// uniform random traffic), at the caller's windows and seed. A builder
// sets what its figure varies — topology, allocator, virtual inputs,
// policy, load — and keeps the rest of the base.
package experiments

import (
	"vix/internal/alloc"
	"vix/internal/config"
	"vix/internal/router"
	"vix/internal/topology"
)

// scheme is a switch-allocation configuration under test, in a network
// or alone in the Figure 7 testbench.
type scheme struct {
	Label  string
	Kind   alloc.Kind
	K      int               // virtual inputs per port; 0 means "equal to VCs"
	Policy router.PolicyKind // "" means maxfree, or balanced once K > 1
}

// virtualInputs resolves K against the VCs per port.
func (s scheme) virtualInputs(vcs int) int {
	if s.K == 0 {
		return vcs
	}
	return s.K
}

// networkSchemes returns the four schemes of Section 4.1 in evaluation
// order: separable input-first, wavefront, augmented path, and VIX.
func networkSchemes() []scheme {
	return []scheme{
		{Label: "IF", Kind: alloc.KindSeparableIF, K: 1, Policy: router.PolicyMaxFree},
		{Label: "WF", Kind: alloc.KindWavefront, K: 1, Policy: router.PolicyMaxFree},
		{Label: "AP", Kind: alloc.KindAugmentingPath, K: 1, Policy: router.PolicyMaxFree},
		{Label: "VIX", Kind: alloc.KindSeparableIF, K: 2, Policy: router.PolicyBalanced},
	}
}

// Topologies returns the paper's three 64-node topologies.
func Topologies() []*topology.Topology {
	return []*topology.Topology{
		topology.NewMesh(8, 8),
		topology.NewCMesh(4, 4, 4),
		topology.NewFBfly(4, 4, 4),
	}
}

// experiment is base with scheme s on topo at the offered load; the seed
// is the study's root seed, which point() replaces with a per-point one
// for the label-seeded grids.
func experiment(base config.Experiment, topo *topology.Topology, s scheme, rate float64, maxInj bool) config.Experiment {
	e := base
	e.Topology, e.Width, e.Height, e.Conc = string(topo.Kind), topo.W, topo.H, topo.Conc
	e.VirtualInputs = s.virtualInputs(base.VCs)
	e.Allocator, e.Policy = string(s.Kind), string(s.Policy)
	e.InjectionRate, e.MaxInjection = rate, maxInj
	return e
}
