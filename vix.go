// Package vix is a cycle-accurate network-on-chip simulation library
// built around the Virtual Input Crossbar (VIX) switch-allocation
// technique of Rao et al., "VIX: Virtual Input Crossbar for Efficient
// Switch Allocation" (DAC 2014).
//
// A conventional virtual-channel router connects each input port to its
// crossbar through a single multiplexer, so only one VC per port can
// transmit per cycle and the separable allocator's two arbitration phases
// frequently make uncoordinated decisions. VIX widens the crossbar to k
// virtual inputs per port (k = 2 in practice), partitioning the port's
// VCs into k sub-groups. Set Experiment.VirtualInputs = 2 to enable it.
//
// A simulated point is an Experiment: topology, router, workload,
// windows and seed in one JSON-serialisable value, the same spec the
// vixsim -config flag, the sweep and figure grids and vixd cases run.
// Custom switch allocators plug in through RegisterAllocator and are
// then named in Experiment.Allocator. A minimal simulation:
//
//	e := vix.DefaultExperiment() // 8x8 mesh, 6 VCs x 5 flits, uniform
//	e.VirtualInputs = 2
//	snapshot, err := e.Run()
package vix

import (
	"vix/internal/alloc"
	"vix/internal/config"
	"vix/internal/stats"
)

// Experiment is a complete description of one simulated point; its Run
// method validates, builds and simulates it.
type Experiment = config.Experiment

// Snapshot summarises a measurement window: latency, throughput,
// fairness, and datapath activity.
type Snapshot = stats.Snapshot

// DefaultExperiment returns the paper's standard configuration.
func DefaultExperiment() Experiment { return config.Default() }

// LoadExperiment reads a JSON experiment description with defaults
// applied.
func LoadExperiment(path string) (Experiment, error) { return config.Load(path) }

// Allocator extension types: implement Allocator and install it with
// RegisterAllocator to plug a custom switch-allocation scheme into the
// router.
type (
	Allocator       = alloc.Allocator
	AllocatorKind   = alloc.Kind
	AllocatorConfig = alloc.Config
	RequestSet      = alloc.RequestSet
	SwitchRequest   = alloc.Request
	SwitchGrant     = alloc.Grant
)

// RegisterAllocator installs a custom allocator factory under kind; an
// Experiment then selects it by naming the kind in its Allocator field.
// A router calls Allocate once per cycle it ticks, and not at all while
// it holds no flits: state that rotates per cycle must be a function of
// RequestSet.Cycle, never a count of calls.
func RegisterAllocator(kind AllocatorKind, factory func(AllocatorConfig) (Allocator, error)) error {
	return alloc.Register(kind, factory)
}

// ValidateGrants checks a grant set against the allocator contract: at
// most one grant per crossbar row and per output port, all grants backed
// by requests. Custom allocators can use it in their own tests.
func ValidateGrants(rs *RequestSet, grants []SwitchGrant) error { return alloc.Validate(rs, grants) }
