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
// VCs into k sub-groups. Set RouterConfig.VirtualInputs = 2 to enable it.
//
// The package is a facade over the implementation packages: it re-exports
// the types needed to build topologies, configure routers, generate
// traffic, run simulations, and reproduce every table and figure of the
// paper. A minimal simulation:
//
//	topo := vix.NewMeshTopology(8, 8)
//	n, err := vix.NewNetwork(vix.NetworkConfig{
//		Topology: topo,
//		Router: vix.RouterConfig{
//			Ports: topo.Radix, VCs: 6, VirtualInputs: 2, BufDepth: 5,
//			AllocKind: vix.AllocSeparableIF, Policy: vix.PolicyBalanced,
//		},
//		Pattern:       vix.NewUniformTraffic(topo.NumNodes),
//		InjectionRate: 0.05,
//		Seed:          1,
//	})
//	if err != nil { ... }
//	n.Warmup(2000)
//	snapshot := n.Measure(6000)
package vix

import (
	"context"

	"vix/internal/alloc"
	"vix/internal/config"
	"vix/internal/energy"
	"vix/internal/experiments"
	"vix/internal/harness"
	"vix/internal/manycore"
	"vix/internal/network"
	"vix/internal/router"
	"vix/internal/routerbench"
	"vix/internal/routing"
	"vix/internal/sim"
	"vix/internal/stats"
	"vix/internal/timing"
	"vix/internal/topology"
	"vix/internal/trace"
	"vix/internal/traffic"
)

// Core simulation types.
type (
	// Network is a running cycle-accurate NoC simulation.
	Network = network.Network
	// NetworkConfig configures a simulation: topology, router
	// microarchitecture, and workload.
	NetworkConfig = network.Config
	// RouterConfig is the per-router microarchitecture: radix, VCs,
	// virtual inputs (VIX), buffer depth, allocator, and VC policy.
	RouterConfig = router.Config
	// Topology is a static description of routers, terminals and links.
	Topology = topology.Topology
	// Snapshot summarises a measurement window: latency, throughput,
	// fairness, and datapath activity.
	Snapshot = stats.Snapshot
	// TrafficPattern maps packet sources to destinations.
	TrafficPattern = traffic.Pattern
	// Workload drives packet generation for closed-loop models.
	Workload = network.Workload
	// PacketSpec and Delivery are the Workload exchange types.
	PacketSpec = network.PacketSpec
	Delivery   = network.Delivery
	// RNG is the deterministic generator used across the simulator.
	RNG = sim.RNG
)

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

// Built-in switch allocation schemes.
const (
	// AllocSeparableIF is the separable input-first allocator; with
	// RouterConfig.VirtualInputs = 2 it is the paper's VIX configuration.
	AllocSeparableIF = alloc.KindSeparableIF
	// AllocWavefront is the wavefront allocator of Tamir and Chi.
	AllocWavefront = alloc.KindWavefront
	// AllocAugmentingPath is maximum matching via augmenting paths.
	AllocAugmentingPath = alloc.KindAugmentingPath
	// AllocPacketChaining is SameInput/anyVC packet chaining.
	AllocPacketChaining = alloc.KindPacketChaining
	// AllocIdeal serves every requested output; requires per-VC rows.
	AllocIdeal = alloc.KindIdeal
	// AllocISLIP is the two-iteration iSLIP allocator of McKeown.
	AllocISLIP = alloc.KindISLIP
	// AllocSparoflo approximates the SPAROFLO allocator of Kumar et al.
	AllocSparoflo = alloc.KindSparoflo
)

// VC-to-sub-group partition schemes for the VIX crossbar.
const (
	// PartitionContiguous is the paper's block partition (default).
	PartitionContiguous = alloc.Contiguous
	// PartitionInterleaved assigns VC i to virtual input i mod k.
	PartitionInterleaved = alloc.Interleaved
)

// Output-VC assignment policies (Section 2.3 of the paper).
const (
	PolicyMaxFree   = router.PolicyMaxFree
	PolicyDimension = router.PolicyDimension
	PolicyBalanced  = router.PolicyBalanced
)

// NewNetwork builds a simulation from cfg.
func NewNetwork(cfg NetworkConfig) (*Network, error) { return network.New(cfg) }

// NewRNG returns a deterministic random number generator.
func NewRNG(seed uint64) *RNG { return sim.NewRNG(seed) }

// RegisterAllocator installs a custom allocator factory under kind; the
// kind is then usable in RouterConfig.AllocKind.
func RegisterAllocator(kind AllocatorKind, factory func(AllocatorConfig) (Allocator, error)) error {
	return alloc.Register(kind, factory)
}

// ValidateGrants checks a grant set against the allocator contract: at
// most one grant per crossbar row and per output port, all grants backed
// by requests. Custom allocators can use it in their own tests.
func ValidateGrants(rs *RequestSet, grants []SwitchGrant) error { return alloc.Validate(rs, grants) }

// Topology constructors for the paper's three 64-node networks (any
// dimensions are accepted).
func NewMeshTopology(w, h int) *Topology     { return topology.NewMesh(w, h) }
func NewCMeshTopology(w, h, c int) *Topology { return topology.NewCMesh(w, h, c) }
func NewFBflyTopology(w, h, c int) *Topology { return topology.NewFBfly(w, h, c) }

// Traffic pattern constructors.
func NewUniformTraffic(n int) TrafficPattern       { return traffic.NewUniform(n) }
func NewTransposeTraffic(w, h int) TrafficPattern  { return traffic.NewTranspose(w, h) }
func NewBitComplementTraffic(n int) TrafficPattern { return traffic.NewBitComplement(n) }
func NewBitReverseTraffic(n int) TrafficPattern    { return traffic.NewBitReverse(n) }
func NewTornadoTraffic(w, h int) TrafficPattern    { return traffic.NewTornado(w, h) }
func NewHotspotTraffic(n int, hs []int, f float64) TrafficPattern {
	return traffic.NewHotspot(n, hs, f)
}

// NewTrafficPattern constructs a pattern by name over a w x h node grid.
// The recognised names are internal/traffic's Names(), which `vixsim -h`
// prints under -pattern.
func NewTrafficPattern(name string, w, h int) (TrafficPattern, error) {
	return traffic.New(name, w, h)
}

// Experiment harness: reproduce the paper's tables and figures.
type (
	ExperimentParams = experiments.Params
	Fig7Row          = experiments.Fig7Row
	Fig8Point        = experiments.Fig8Point
	Fig9Row          = experiments.Fig9Row
	Fig10Row         = experiments.Fig10Row
	Fig11Row         = experiments.Fig11Row
	Fig12Row         = experiments.Fig12Row
	Table4Row        = experiments.Table4Row
	StageDelays      = timing.StageDelays
	AllocatorDelay   = timing.AllocatorDelay
	RadixScalingRow  = timing.RadixScalingRow
	Replication      = experiments.Replication
)

// DefaultExperimentParams returns the paper's configuration with
// laptop-scale simulation windows.
func DefaultExperimentParams() ExperimentParams { return experiments.DefaultParams() }

// The paper's evaluation, one function per table or figure. The network
// figures and the studies below are grids of simulations; this facade
// runs them one point at a time (cmd/figures fans them out).
func Figure7(p ExperimentParams) ([]Fig7Row, error) { return experiments.Figure7(p) }
func Figure8(p ExperimentParams, rates []float64) ([]Fig8Point, error) {
	return experiments.Figure8(context.Background(), p, rates, harness.Serial())
}
func Figure9(p ExperimentParams) ([]Fig9Row, error) {
	return experiments.Figure9(context.Background(), p, harness.Serial())
}
func Figure10(p ExperimentParams) ([]Fig10Row, error) {
	return experiments.Figure10(context.Background(), p, harness.Serial())
}
func Figure11(p ExperimentParams) ([]Fig11Row, error) {
	return experiments.Figure11(context.Background(), p, harness.Serial())
}
func Figure12(p ExperimentParams) ([]Fig12Row, error) {
	return experiments.Figure12(context.Background(), p, harness.Serial())
}
func Table1() []StageDelays                          { return timing.Table1() }
func Table3() []AllocatorDelay                       { return timing.Table3() }
func Table4(p ExperimentParams) ([]Table4Row, error) { return experiments.Table4(p) }

// Single-router allocation-efficiency testbench (Figure 7 substrate).
type (
	RouterBenchConfig = routerbench.Config
	RouterBenchResult = routerbench.Result
)

// RunRouterBench measures a single isolated router's allocation
// efficiency at maximum injection.
func RunRouterBench(cfg RouterBenchConfig, warmup, measure int) (RouterBenchResult, error) {
	return routerbench.Run(cfg, warmup, measure)
}

// RadixScaling sweeps router radices for the Section 2.4 high-radix
// feasibility study; VIXFeasibilityFrontier locates the largest radix
// whose 2PxP crossbar still fits the router cycle.
func RadixScaling(radices []int, vcs int) []RadixScalingRow { return timing.RadixScaling(radices, vcs) }
func VIXFeasibilityFrontier(vcs int) int                    { return timing.VIXFeasibilityFrontier(vcs) }

// ReplicateSaturation re-runs a saturation measurement over several
// seeds and summarises the distribution.
func ReplicateSaturation(t *Topology, label string, kind AllocatorKind, k int, p ExperimentParams, seeds []uint64) (Replication, error) {
	return experiments.ReplicateSaturation(context.Background(), t, experiments.Scheme{Label: label, Kind: kind, K: k}, p, seeds, harness.Serial())
}

// Timing models (Tables 1 and 3 substrate).
func VADelay(ports, vcs int) float64         { return timing.VADelay(ports, vcs) }
func SADelay(ports, vcs, k int) float64      { return timing.SADelay(ports, vcs, k) }
func XbarDelay(in, out int) float64          { return timing.XbarDelay(in, out) }
func RouterCycleTime(ports, vcs int) float64 { return timing.CycleTime(ports, vcs) }

// Energy model (Figure 11 substrate).
type (
	EnergyParams    = energy.Params
	EnergyBreakdown = energy.Breakdown
	EnergyNetwork   = energy.Network
)

// DefaultEnergyParams returns the 45 nm energy calibration.
func DefaultEnergyParams() EnergyParams { return energy.DefaultParams() }

// EnergyPerBit converts a measurement snapshot into pJ/bit by component.
func EnergyPerBit(p EnergyParams, s Snapshot, nw EnergyNetwork) (EnergyBreakdown, error) {
	return energy.PerBit(p, s, nw)
}

// Application-level substrate (Table 4): benchmark traces and the
// trace-driven 64-core system model.
type (
	Benchmark      = trace.App
	BenchmarkMix   = trace.Mix
	ManycoreConfig = manycore.Config
	ManycoreSystem = manycore.System
)

// BenchmarkCatalog returns the 35-benchmark suite.
func BenchmarkCatalog() []Benchmark { return trace.Catalog() }

// BenchmarkMixes returns the eight Table 4 workloads.
func BenchmarkMixes() []BenchmarkMix { return trace.Mixes() }

// DefaultManycoreConfig returns the Table 2 processor configuration.
func DefaultManycoreConfig() ManycoreConfig { return manycore.DefaultConfig() }

// NewManycore builds the trace-driven system for a per-node application
// assignment; install it as NetworkConfig.Workload.
func NewManycore(cfg ManycoreConfig, apps []Benchmark) (*ManycoreSystem, error) {
	return manycore.New(cfg, apps)
}

// DORHops returns the dimension-order hop count between two terminals.
func DORHops(t *Topology, src, dst int) int {
	return routing.Hops(t, routing.DOR(t), src, dst)
}

// Declarative experiment configuration (JSON) — see the vixsim CLI's
// -config flag.
type Experiment = config.Experiment

// DefaultExperiment returns the paper's standard configuration.
func DefaultExperiment() Experiment { return config.Default() }

// LoadExperiment reads a JSON experiment description with defaults
// applied.
func LoadExperiment(path string) (Experiment, error) { return config.Load(path) }

// Ablation studies of the design choices (cmd/figures policies … allocators).
type (
	PolicyAblationRow      = experiments.PolicyAblationRow
	PartitionAblationRow   = experiments.PartitionAblationRow
	PipelineAblationRow    = experiments.PipelineAblationRow
	SpeculationAblationRow = experiments.SpeculationAblationRow
	KSweepRow              = experiments.KSweepRow
	AllocAblationRow       = experiments.AllocAblationRow
	SaturationResult       = experiments.SaturationResult
)

// AblatePolicies compares the Section 2.3 VC-assignment policies across
// traffic patterns on a saturated VIX mesh.
func AblatePolicies(p ExperimentParams, patterns []string) ([]PolicyAblationRow, error) {
	return experiments.AblatePolicies(context.Background(), p, patterns, harness.Serial())
}

// AblatePartition compares contiguous and interleaved VC sub-grouping.
func AblatePartition(p ExperimentParams) ([]PartitionAblationRow, error) {
	return experiments.AblatePartition(context.Background(), p, harness.Serial())
}

// AblatePipeline compares the 3-stage and 5-stage router pipelines.
func AblatePipeline(p ExperimentParams, probeRate float64) ([]PipelineAblationRow, error) {
	return experiments.AblatePipeline(context.Background(), p, probeRate, harness.Serial())
}

// AblateSpeculation compares speculative and non-speculative switch
// allocation.
func AblateSpeculation(p ExperimentParams, probeRate float64) ([]SpeculationAblationRow, error) {
	return experiments.AblateSpeculation(context.Background(), p, probeRate, harness.Serial())
}

// AblateVirtualInputs sweeps the virtual-input factor k on the mesh.
func AblateVirtualInputs(p ExperimentParams) ([]KSweepRow, error) {
	return experiments.AblateVirtualInputs(context.Background(), p, harness.Serial())
}

// AblateAllocators races the extended allocator set (IF, iSLIP,
// SPAROFLO, WF, AP, VIX, VIX-WF) at saturation.
func AblateAllocators(p ExperimentParams) ([]AllocAblationRow, error) {
	return experiments.AblateAllocators(context.Background(), p, harness.Serial())
}

// FindSaturation binary-searches a scheme's saturation injection rate on
// a topology.
func FindSaturation(t *Topology, label string, kind AllocatorKind, k int, p ExperimentParams, accept float64) (SaturationResult, error) {
	return experiments.FindSaturation(t, experiments.Scheme{Label: label, Kind: kind, K: k}, p, accept)
}
