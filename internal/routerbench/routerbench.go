// Package routerbench implements the single-router switch-allocation
// efficiency testbench of the paper's Section 4.2 (Figure 7): a router
// studied in isolation, with single-flit packets to uniformly random
// outputs injected at maximum rate into every VC of every port, free of
// network-level effects, VC allocation, and flow control. The achieved
// flit rate measures pure allocation efficiency; a radix-P router can
// move at most P flits per cycle.
package routerbench

import (
	"vix/internal/alloc"
	"vix/internal/sim"
)

// Config describes one testbench run.
type Config struct {
	// Radix is the router's port count (5 for mesh, 8 for CMesh, 10 for
	// FBfly in the paper).
	Radix int
	// VCs per input port (6 in the paper's Figure 7).
	VCs int
	// VirtualInputs per port: 1 baseline, 2 VIX, VCs ideal VIX.
	VirtualInputs int
	// AllocKind selects the allocation scheme.
	AllocKind alloc.Kind
	Seed      uint64
}

// Result summarises a run.
type Result struct {
	Config        Config
	Cycles        int
	Flits         int64
	FlitsPerCycle float64
	// Efficiency is FlitsPerCycle normalised to the radix (the maximum
	// possible flits per cycle).
	Efficiency float64
}

// Bench is a reusable single-router testbench instance.
type Bench struct {
	cfg   Config
	alloc alloc.Allocator
	rng   *sim.RNG
	// reqs is the standing request set: every input VC is always
	// backlogged, so every VC requests every cycle and only the output a
	// granted VC's next packet asks for changes. Requests[ivc] is input VC
	// ivc = port*VCs + VC's request, kept equal to the packed form for a
	// registered kind that reads the list.
	reqs alloc.RequestSet
}

// New builds a testbench. It returns an error for invalid configurations.
func New(cfg Config) (*Bench, error) {
	acfg := alloc.Config{Ports: cfg.Radix, VCs: cfg.VCs, VirtualInputs: cfg.VirtualInputs}
	a, err := alloc.New(cfg.AllocKind, acfg)
	if err != nil {
		return nil, err
	}
	b := &Bench{cfg: cfg, alloc: a, rng: sim.NewRNG(cfg.Seed)}
	b.reqs.Config = acfg
	for ivc := 0; ivc < cfg.Radix*cfg.VCs; ivc++ {
		b.reqs.Requests = append(b.reqs.Requests, alloc.Request{
			Port: ivc / cfg.VCs, VC: ivc % cfg.VCs, OutPort: b.rng.Intn(cfg.Radix),
		})
	}
	b.reqs.Pack()
	return b, nil
}

// Step advances one cycle and returns the number of flits transferred.
func (b *Bench) Step() int { return len(b.step()) }

// step advances one cycle and returns its grants, valid until the next.
func (b *Bench) step() []alloc.Grant {
	grants := b.alloc.Allocate(&b.reqs)
	// Every granted flit is a whole packet: its VC refills at once with
	// the next packet, to a fresh random output.
	for _, g := range grants {
		out := b.rng.Intn(b.cfg.Radix)
		b.reqs.Out[g.IVC] = int8(out)
		b.reqs.Requests[g.IVC].OutPort = out
	}
	return grants
}

// Run executes warmup then measure cycles and returns the measured rate.
func Run(cfg Config, warmup, measure int) (Result, error) {
	b, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	for i := 0; i < warmup; i++ {
		b.Step()
	}
	var flits int64
	for i := 0; i < measure; i++ {
		flits += int64(b.Step())
	}
	r := Result{Config: cfg, Cycles: measure, Flits: flits}
	r.FlitsPerCycle = float64(flits) / float64(measure)
	r.Efficiency = r.FlitsPerCycle / float64(cfg.Radix)
	return r, nil
}
