// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment is a function that runs the necessary
// simulations and returns structured rows; cmd/figures prints them.
// Every simulated point is a config.Experiment run by its Run method:
// the network figures and the ablation studies are grids of them fanned
// out through internal/harness (grid.go), and only Table 4 — whose
// manycore Workload a spec cannot express — builds its network itself.
//
// Experiment parameters default to the paper's configuration (Section 3:
// 64 nodes, 6 VCs x 5-flit buffers, 128-bit datapath, 4-flit packets,
// uniform random traffic) with simulation windows sized for a laptop.
package experiments

import (
	"fmt"

	"vix/internal/alloc"
	"vix/internal/config"
	"vix/internal/router"
	"vix/internal/topology"
)

// Scheme is a switch-allocation configuration under test, in a network
// or alone in the Figure 7 testbench.
type Scheme struct {
	Label  string
	Kind   alloc.Kind
	K      int               // virtual inputs per port; 0 means "equal to VCs"
	Policy router.PolicyKind // "" means maxfree, or balanced once K > 1
}

// virtualInputs resolves K against the VCs per port.
func (s Scheme) virtualInputs(vcs int) int {
	if s.K == 0 {
		return vcs
	}
	return s.K
}

// NetworkSchemes returns the four schemes of Section 4.1 in evaluation
// order: separable input-first, wavefront, augmented path, and VIX.
func NetworkSchemes() []Scheme {
	return []Scheme{
		{Label: "IF", Kind: alloc.KindSeparableIF, K: 1, Policy: router.PolicyMaxFree},
		{Label: "WF", Kind: alloc.KindWavefront, K: 1, Policy: router.PolicyMaxFree},
		{Label: "AP", Kind: alloc.KindAugmentingPath, K: 1, Policy: router.PolicyMaxFree},
		{Label: "VIX", Kind: alloc.KindSeparableIF, K: 2, Policy: router.PolicyBalanced},
	}
}

// Params are the common simulation knobs.
type Params struct {
	VCs        int
	BufDepth   int
	PacketSize int
	Warmup     int
	Measure    int
	Seed       uint64
}

// DefaultParams returns the paper's configuration, config.Default, with
// laptop-scale windows.
func DefaultParams() Params {
	d := config.Default()
	return Params{VCs: d.VCs, BufDepth: d.BufDepth, PacketSize: d.PacketSize, Warmup: d.Warmup, Measure: d.Measure, Seed: d.Seed}
}

// Validate rejects windows and buffer geometry no experiment can
// measure with — a zero-cycle measurement divides by zero into a table
// of zeros and NaNs that looks like a result. The findings are
// config.FieldErrors keyed by lower-case field name, which for warmup and
// measure is also the name of the flag every command sets them with.
func (p Params) Validate() error {
	var errs config.ValidationError
	atLeast := func(field string, v, min int) {
		if v < min {
			errs = append(errs, config.FieldError{Field: field, Msg: fmt.Sprintf("must be at least %d, got %d", min, v)})
		}
	}
	atLeast("vcs", p.VCs, 1)
	atLeast("buf_depth", p.BufDepth, 1)
	atLeast("packet_size", p.PacketSize, 1)
	atLeast("warmup", p.Warmup, 0)
	atLeast("measure", p.Measure, 1)
	if errs != nil {
		return errs
	}
	return nil
}

// Topologies returns the paper's three 64-node topologies.
func Topologies() []*topology.Topology {
	return []*topology.Topology{
		topology.NewMesh(8, 8),
		topology.NewCMesh(4, 4, 4),
		topology.NewFBfly(4, 4, 4),
	}
}

// experiment describes scheme s on topo under p at the offered load; the
// seed is the study's root seed, which point() replaces with a per-point
// one for the label-seeded grids.
func experiment(topo *topology.Topology, s Scheme, p Params, rate float64, maxInj bool) config.Experiment {
	return config.Experiment{
		Topology: string(topo.Kind), Width: topo.W, Height: topo.H, Conc: topo.Conc,
		VCs: p.VCs, BufDepth: p.BufDepth, VirtualInputs: s.virtualInputs(p.VCs),
		Allocator: string(s.Kind), Policy: string(s.Policy),
		Pattern:       "uniform",
		InjectionRate: rate,
		MaxInjection:  maxInj,
		PacketSize:    p.PacketSize,
		Warmup:        p.Warmup,
		Measure:       p.Measure,
		Seed:          p.Seed,
	}
}
