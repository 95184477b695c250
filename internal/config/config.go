// Package config defines a declarative, JSON-serialisable description of
// a network experiment and resolves it into the runtime configuration
// objects. The vixsim CLI accepts such files via -config, which makes
// sweeps scriptable and experiment setups reviewable.
package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"

	"vix/internal/alloc"
	"vix/internal/network"
	"vix/internal/router"
	"vix/internal/stats"
	"vix/internal/topology"
	"vix/internal/traffic"
)

// Experiment is a complete, self-contained description of one simulated
// point, and the only one: every figure, study, sweep row and vixd case
// is an Experiment handed to Run.
//
// Decode fills absent JSON fields from Default. A zero value set in code
// resolves the same way for the structural fields — topology and its
// dimensions, vcs, buf_depth, virtual_inputs, allocator, policy,
// partition, pattern, packet_size, hop_delay — to the default noted
// beside each, in Validate, Build and Run alike. The load and the
// windows are taken literally: injection_rate must be positive unless
// max_injection is set, measure must be at least 1, and a zero warmup or
// seed is a legal value, not a request for the default.
type Experiment struct {
	// Topology: "mesh" or "torus" (WxH), "cmesh" or "fbfly" (WxH with
	// Conc terminals per router). Defaults: mesh,torus 8x8 /
	// cmesh,fbfly 4x4 c4.
	Topology string `json:"topology"`
	Width    int    `json:"width,omitempty"`
	Height   int    `json:"height,omitempty"`
	Conc     int    `json:"conc,omitempty"`

	// Router microarchitecture.
	VCs           int    `json:"vcs,omitempty"`            // default 6
	BufDepth      int    `json:"buf_depth,omitempty"`      // default 5
	VirtualInputs int    `json:"virtual_inputs,omitempty"` // default 1; 2 = VIX
	Allocator     string `json:"allocator,omitempty"`      // default "if"
	Policy        string `json:"policy,omitempty"`         // default by k
	Partition     string `json:"partition,omitempty"`      // "contiguous" | "interleaved"
	// NonSpeculative disables the speculative VA/SA overlap of the
	// three-stage pipeline.
	NonSpeculative bool `json:"non_speculative,omitempty"`

	// Workload.
	Pattern       string  `json:"pattern,omitempty"` // default "uniform"
	InjectionRate float64 `json:"injection_rate,omitempty"`
	MaxInjection  bool    `json:"max_injection,omitempty"`
	PacketSize    int     `json:"packet_size,omitempty"` // default 4

	// Simulation control.
	Warmup   int    `json:"warmup,omitempty"`  // 2000 when absent from JSON
	Measure  int    `json:"measure,omitempty"` // 6000 when absent from JSON
	Seed     uint64 `json:"seed,omitempty"`
	HopDelay int    `json:"hop_delay,omitempty"` // default 3
}

// Default returns the paper's standard configuration: an 8x8 mesh with
// 6 VCs x 5-flit buffers, separable input-first allocation, uniform
// random 4-flit packets at 0.05 packets/cycle/node.
func Default() Experiment {
	return Experiment{
		Topology:      "mesh",
		VCs:           6,
		BufDepth:      5,
		VirtualInputs: 1,
		Allocator:     "if",
		Pattern:       "uniform",
		InjectionRate: 0.05,
		PacketSize:    4,
		Warmup:        2000,
		Measure:       6000,
		Seed:          1,
	}
}

// Decode reads one experiment description from JSON, applying the
// documented defaults for absent fields. Unknown fields are rejected to
// catch typos, and the result is validated: a spec Decode accepts is a
// spec Build can resolve. This is the single ingestion path for
// experiment specs — config files (Load) and vixd request bodies both
// go through it, so a field that defaults here defaults identically
// everywhere, and identical specs hash to identical store IDs however
// they arrived.
func Decode(r io.Reader) (Experiment, error) {
	e := Default()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return Experiment{}, fmt.Errorf("config: parsing experiment: %w", err)
	}
	if err := atEOF(dec); err != nil {
		return Experiment{}, fmt.Errorf("config: parsing experiment: %w", err)
	}
	if err := e.Validate(); err != nil {
		return Experiment{}, err
	}
	return e, nil
}

// atEOF reports an error unless only whitespace follows the value dec
// has just decoded: a concatenated or corrupted file is refused, not read
// up to the end of its first object.
func atEOF(dec *json.Decoder) error {
	switch _, err := dec.Token(); err {
	case io.EOF:
		return nil
	case nil:
		return errors.New("unexpected data after the JSON value")
	default:
		return err
	}
}

// Load reads an experiment description from a JSON file via Decode,
// naming the file in any error.
func Load(path string) (Experiment, error) {
	f, err := os.Open(path)
	if err != nil {
		return Experiment{}, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	e, err := Decode(f)
	if err != nil {
		return Experiment{}, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

// dims resolves the router grid and the terminals per router after the
// documented defaults (mesh, torus: 8x8 with one terminal; cmesh, fbfly:
// 4x4 with four).
func (e Experiment) dims() (w, h, conc int) {
	w, h, conc = e.Width, e.Height, 1
	side := 8
	if e.Topology == "cmesh" || e.Topology == "fbfly" {
		side, conc = 4, e.Conc
		if conc == 0 {
			conc = 4
		}
	}
	if w == 0 {
		w, h = side, side
	}
	if h == 0 {
		h = w
	}
	return w, h, conc
}

// crossbar resolves the per-port VC count, buffer depth and virtual-input
// count after the documented defaults (6 VCs x 5 flits, k = 1).
func (e Experiment) crossbar() (vcs, depth, k int) {
	vcs, depth, k = e.VCs, e.BufDepth, e.VirtualInputs
	if vcs == 0 {
		vcs = 6
	}
	if depth == 0 {
		depth = 5
	}
	if k == 0 {
		k = 1
	}
	return vcs, depth, k
}

// Build resolves the full network configuration.
func (e Experiment) Build() (network.Config, error) {
	w, h, c := e.dims()
	if w < 0 || h < 0 || c < 0 {
		return network.Config{}, fmt.Errorf("config: negative topology dimensions %dx%d c%d", w, h, c)
	}
	var topo *topology.Topology
	switch e.Topology {
	case "", "mesh":
		topo = topology.NewMesh(w, h)
	case "torus":
		topo = topology.NewTorus(w, h)
	case "cmesh":
		topo = topology.NewCMesh(w, h, c)
	case "fbfly":
		topo = topology.NewFBfly(w, h, c)
	default:
		return network.Config{}, fmt.Errorf("config: unknown topology %q", e.Topology)
	}
	// The logical node grid for coordinate-based patterns is the square
	// grid of terminals (8x8 for all 64-node configurations).
	gw, gh := nodeGrid(topo.NumNodes)
	patName := e.Pattern
	if patName == "" {
		patName = "uniform"
	}
	pat, err := traffic.New(patName, gw, gh)
	if err != nil {
		return network.Config{}, err
	}
	pol := router.PolicyKind(e.Policy)
	if pol == "" {
		pol = router.PolicyMaxFree
		if e.VirtualInputs > 1 {
			pol = router.PolicyBalanced
		}
	}
	var part alloc.Partition
	switch e.Partition {
	case "", "contiguous":
		part = alloc.Contiguous
	case "interleaved":
		part = alloc.Interleaved
	default:
		return network.Config{}, fmt.Errorf("config: unknown partition %q", e.Partition)
	}
	allocKind := e.Allocator
	if allocKind == "" {
		allocKind = "if"
	}
	vcs, depth, k := e.crossbar()
	return network.Config{
		Topology: topo,
		Router: router.Config{
			Ports:          topo.Radix,
			VCs:            vcs,
			VirtualInputs:  k,
			BufDepth:       depth,
			AllocKind:      alloc.Kind(allocKind),
			Policy:         pol,
			Partition:      part,
			NonSpeculative: e.NonSpeculative,
		},
		Pattern:       pat,
		InjectionRate: e.InjectionRate,
		MaxInjection:  e.MaxInjection,
		PacketSize:    e.PacketSize,
		Seed:          e.Seed,
		HopDelay:      e.HopDelay,
	}, nil
}

// Run simulates the experiment: Validate, Build, a network ticked on the
// calling goroutine, Warmup cycles discarded, Measure cycles reported.
func (e Experiment) Run() (stats.Snapshot, error) {
	if err := e.Validate(); err != nil {
		return stats.Snapshot{}, err
	}
	cfg, err := e.Build()
	if err != nil {
		return stats.Snapshot{}, err
	}
	n, err := network.New(cfg)
	if err != nil {
		return stats.Snapshot{}, err
	}
	n.Warmup(e.Warmup)
	return n.Measure(e.Measure), nil
}

// nodeGrid returns the squarest w x h factorisation of n for pattern
// coordinates (64 -> 8x8).
func nodeGrid(n int) (int, int) {
	best := 1
	for w := 1; w*w <= n; w++ {
		if n%w == 0 {
			best = w
		}
	}
	return n / best, best
}

// OfferedLabel renders the offered load for labels, job names and CSV
// columns: "saturation" for a max-injection point, otherwise the shortest
// decimal that reads back as the injection rate.
func (e Experiment) OfferedLabel() string {
	if e.MaxInjection {
		return "saturation"
	}
	return strconv.FormatFloat(e.InjectionRate, 'g', -1, 64)
}

// PartitionName returns the partition's display name.
func (e Experiment) PartitionName() string {
	if e.Partition == "" {
		return "contiguous"
	}
	return e.Partition
}
