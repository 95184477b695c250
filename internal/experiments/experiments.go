// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment is a function that runs the necessary
// simulations and returns structured rows; cmd/figures prints them and
// the root benchmark suite regenerates them under `go test -bench`.
//
// Experiment parameters default to the paper's configuration (Section 3:
// 64 nodes, 6 VCs x 5-flit buffers, 128-bit datapath, 4-flit packets,
// uniform random traffic) with simulation windows sized for a laptop.
package experiments

import (
	"fmt"

	"vix/internal/alloc"
	"vix/internal/config"
	"vix/internal/network"
	"vix/internal/router"
	"vix/internal/stats"
	"vix/internal/topology"
	"vix/internal/traffic"
)

// Scheme is a network-level switch-allocation configuration under test.
type Scheme struct {
	Label  string
	Kind   alloc.Kind
	K      int // virtual inputs per port; 0 means "equal to VCs"
	Policy router.PolicyKind
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
	// TickWorkers is each simulation's parallel-tick width
	// (network.Config.Workers): 0 or 1 serial, negative GOMAXPROCS. A
	// wall-clock knob with byte-identical output, so it stays out of
	// every point's spec and never invalidates a manifest.
	TickWorkers int
}

// DefaultParams returns the paper's configuration with laptop-scale
// windows.
func DefaultParams() Params {
	return Params{VCs: 6, BufDepth: 5, PacketSize: 4, Warmup: 2000, Measure: 6000, Seed: 1}
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

// Scaled returns a copy with the simulation windows multiplied by f
// (benchmarks use f < 1 for quick runs).
func (p Params) Scaled(f float64) Params {
	q := p
	q.Warmup = int(float64(p.Warmup) * f)
	q.Measure = int(float64(p.Measure) * f)
	if q.Warmup < 100 {
		q.Warmup = 100
	}
	if q.Measure < 200 {
		q.Measure = 200
	}
	return q
}

// Topologies returns the paper's three 64-node topologies.
func Topologies() []*topology.Topology {
	return []*topology.Topology{
		topology.NewMesh(8, 8),
		topology.NewCMesh(4, 4, 4),
		topology.NewFBfly(4, 4, 4),
	}
}

// buildConfig assembles a network config for a scheme.
func buildConfig(topo *topology.Topology, s Scheme, p Params, rate float64, maxInj bool) network.Config {
	k := s.K
	if k == 0 {
		k = p.VCs
	}
	return network.Config{
		Topology: topo,
		Router: router.Config{
			Ports: topo.Radix, VCs: p.VCs, VirtualInputs: k, BufDepth: p.BufDepth,
			AllocKind: s.Kind, Policy: s.Policy,
		},
		Pattern:       traffic.NewUniform(topo.NumNodes),
		InjectionRate: rate,
		MaxInjection:  maxInj,
		PacketSize:    p.PacketSize,
		Seed:          p.Seed,
		Workers:       p.TickWorkers,
	}
}

// runOne builds, warms up, and measures one configuration.
func runOne(topo *topology.Topology, s Scheme, p Params, rate float64, maxInj bool) (stats.Snapshot, error) {
	n, err := network.New(buildConfig(topo, s, p, rate, maxInj))
	if err != nil {
		return stats.Snapshot{}, fmt.Errorf("experiments: %s on %s: %w", s.Label, topo.Name, err)
	}
	defer n.Close()
	n.Warmup(p.Warmup)
	return n.Measure(p.Measure), nil
}

// SaturationThroughput measures accepted flits/cycle/node at maximum
// injection for the scheme on the topology.
func SaturationThroughput(topo *topology.Topology, s Scheme, p Params) (stats.Snapshot, error) {
	return runOne(topo, s, p, 0, true)
}
