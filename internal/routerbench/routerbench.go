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
	// outPort[p][v] is the output the head flit of port p's always
	// backlogged VC v requests.
	outPort [][]int
	reqs    alloc.RequestSet
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
	b.outPort = make([][]int, cfg.Radix)
	for p := range b.outPort {
		b.outPort[p] = make([]int, cfg.VCs)
		for v := range b.outPort[p] {
			b.outPort[p][v] = b.rng.Intn(cfg.Radix)
		}
	}
	return b, nil
}

// Step advances one cycle and returns the number of flits transferred.
func (b *Bench) Step() int {
	b.reqs.Requests = b.reqs.Requests[:0]
	for p := 0; p < b.cfg.Radix; p++ {
		for v := 0; v < b.cfg.VCs; v++ {
			b.reqs.Requests = append(b.reqs.Requests, alloc.Request{
				Port: p, VC: v, OutPort: b.outPort[p][v],
			})
		}
	}
	grants := b.alloc.Allocate(&b.reqs)
	// Every granted flit is a whole packet: its VC refills at once with
	// the next packet, to a fresh random output.
	for _, g := range grants {
		req := g.Request(&b.reqs)
		b.outPort[req.Port][req.VC] = b.rng.Intn(b.cfg.Radix)
	}
	return len(grants)
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
