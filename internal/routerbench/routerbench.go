// Package routerbench implements the single-router switch-allocation
// efficiency testbench of the paper's Section 4.2 (Figure 7): a router
// studied in isolation, with packets injected at maximum rate into every
// VC of every port, free of network-level effects, VC allocation, and
// flow control. The achieved flit rate measures pure allocation
// efficiency; a radix-P router can move at most P flits per cycle.
package routerbench

import (
	"fmt"

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
	// PacketSize in flits; a packet holds its output port for all its
	// flits. 1 isolates per-cycle allocation decisions.
	PacketSize int
	// HotspotFraction skews the output-port distribution: this fraction
	// of packets targets output 0 and the rest are uniform. Zero keeps
	// the Figure 7 uniform-output workload.
	HotspotFraction float64
	Seed            uint64
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

// vcState is one always-backlogged virtual channel.
type vcState struct {
	outPort   int
	remaining int
}

// Bench is a reusable single-router testbench instance.
type Bench struct {
	cfg   Config
	acfg  alloc.Config
	alloc alloc.Allocator
	rng   *sim.RNG
	vcs   [][]*vcState
	reqs  alloc.RequestSet
}

// New builds a testbench. It returns an error for invalid configurations.
func New(cfg Config) (*Bench, error) {
	if cfg.PacketSize <= 0 {
		return nil, fmt.Errorf("routerbench: packet size must be positive, got %d", cfg.PacketSize)
	}
	acfg := alloc.Config{Ports: cfg.Radix, VCs: cfg.VCs, VirtualInputs: cfg.VirtualInputs}
	a, err := alloc.New(cfg.AllocKind, acfg)
	if err != nil {
		return nil, err
	}
	b := &Bench{cfg: cfg, acfg: acfg, alloc: a, rng: sim.NewRNG(cfg.Seed)}
	b.reqs.Config = acfg
	b.vcs = make([][]*vcState, cfg.Radix)
	for p := range b.vcs {
		b.vcs[p] = make([]*vcState, cfg.VCs)
		for v := range b.vcs[p] {
			b.vcs[p][v] = &vcState{}
			b.refill(b.vcs[p][v])
		}
	}
	return b, nil
}

// refill starts a fresh packet in the VC: a random output port held for
// PacketSize flits (maximum injection rate). The default distribution is
// uniform; HotspotFraction concentrates load on output 0.
func (b *Bench) refill(vc *vcState) {
	if b.cfg.HotspotFraction > 0 && b.rng.Bernoulli(b.cfg.HotspotFraction) {
		vc.outPort = 0
	} else {
		vc.outPort = b.rng.Intn(b.cfg.Radix)
	}
	vc.remaining = b.cfg.PacketSize
}

// Step advances one cycle and returns the number of flits transferred.
func (b *Bench) Step() int {
	b.reqs.Requests = b.reqs.Requests[:0]
	for p := 0; p < b.cfg.Radix; p++ {
		for v := 0; v < b.cfg.VCs; v++ {
			b.reqs.Requests = append(b.reqs.Requests, alloc.Request{
				Port: p, VC: v, OutPort: b.vcs[p][v].outPort,
			})
		}
	}
	grants := b.alloc.Allocate(&b.reqs)
	for _, g := range grants {
		req := g.Request(&b.reqs)
		vc := b.vcs[req.Port][req.VC]
		vc.remaining--
		if vc.remaining == 0 {
			b.refill(vc)
		}
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
