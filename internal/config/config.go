// Package config defines a declarative, JSON-serialisable description of
// a network experiment and resolves it into the runtime configuration
// objects. The vixsim CLI accepts such files via -config, which makes
// sweeps scriptable and experiment setups reviewable.
package config

import (
	"cmp"
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
// beside each; Resolved is the one place they apply. The load and the
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
	Partition     string `json:"partition,omitempty"`      // "contiguous" (default) | "interleaved"
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
// random 4-flit packets at 0.05 packets/cycle/node: Resolved's defaults
// for the fields the paper names, the rest left zero (store IDs hash it).
func Default() Experiment {
	r := Experiment{}.Resolved()
	return Experiment{Topology: r.Topology, VCs: r.VCs, BufDepth: r.BufDepth, VirtualInputs: r.VirtualInputs,
		Allocator: r.Allocator, Pattern: r.Pattern, PacketSize: r.PacketSize,
		InjectionRate: 0.05, Warmup: 2000, Measure: 6000, Seed: 1}
}

// Resolved returns e with every structural zero field set to its
// documented default, the one place the defaults apply: Validate, Build
// and every display of a spec read it. A mesh or torus router has one
// terminal, so its Conc resolves to 1 whatever e says, and a zero Width
// takes the default square whatever Height says. Non-zero fields, the
// load, the windows and the seed are returned as given.
func (e Experiment) Resolved() Experiment {
	e.Topology = cmp.Or(e.Topology, string(topology.KindMesh))
	side := 8
	if e.Topology == string(topology.KindCMesh) || e.Topology == string(topology.KindFBfly) {
		side, e.Conc = 4, cmp.Or(e.Conc, 4)
	} else {
		e.Conc = 1
	}
	if e.Width == 0 {
		e.Width, e.Height = side, side
	}
	e.Height = cmp.Or(e.Height, e.Width)
	e.VCs = cmp.Or(e.VCs, 6)
	e.BufDepth = cmp.Or(e.BufDepth, 5)
	e.VirtualInputs = cmp.Or(e.VirtualInputs, 1)
	e.Allocator = cmp.Or(e.Allocator, string(alloc.KindSeparableIF))
	if e.Policy == "" && e.VirtualInputs > 1 {
		e.Policy = string(router.PolicyBalanced) // the Section 2.3 policy is VIX's default
	}
	e.Policy = cmp.Or(e.Policy, string(router.PolicyMaxFree))
	e.Partition = cmp.Or(e.Partition, alloc.Contiguous.String())
	e.Pattern = cmp.Or(e.Pattern, "uniform")
	e.PacketSize = cmp.Or(e.PacketSize, network.DefaultPacketSize)
	e.HopDelay = cmp.Or(e.HopDelay, network.DefaultHopDelay)
	return e
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
	p := &e // a null sets p to nil, not the defaults standing as a spec
	if err := dec.Decode(&p); err != nil {
		return Experiment{}, fmt.Errorf("config: parsing experiment: %w", err)
	}
	if p == nil {
		return Experiment{}, errors.New("config: parsing experiment: null is not an experiment object")
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

// Build validates the experiment and resolves it into the network
// configuration it describes.
func (e Experiment) Build() (network.Config, error) {
	if err := e.Validate(); err != nil {
		return network.Config{}, err
	}
	return e.build()
}

// build resolves the experiment and constructs its network configuration
// without validating it, so the only errors are the owning packages'.
func (e Experiment) build() (network.Config, error) {
	r := e.Resolved()
	topo, err := topology.New(topology.Kind(r.Topology), r.Width, r.Height, r.Conc)
	if err != nil {
		return network.Config{}, err
	}
	// The logical node grid for coordinate-based patterns is the square
	// grid of terminals (8x8 for all 64-node configurations).
	gw, gh := nodeGrid(topo.NumNodes)
	pat, err := traffic.New(r.Pattern, gw, gh)
	if err != nil {
		return network.Config{}, err
	}
	part, err := alloc.ParsePartition(r.Partition)
	if err != nil {
		return network.Config{}, err
	}
	return network.Config{
		Topology: topo,
		Router: router.Config{
			Ports:          topo.Radix,
			VCs:            r.VCs,
			VirtualInputs:  r.VirtualInputs,
			BufDepth:       r.BufDepth,
			AllocKind:      alloc.Kind(r.Allocator),
			Policy:         router.PolicyKind(r.Policy),
			Partition:      part,
			NonSpeculative: r.NonSpeculative,
		},
		Pattern:       pat,
		InjectionRate: r.InjectionRate,
		MaxInjection:  r.MaxInjection,
		PacketSize:    r.PacketSize,
		Seed:          r.Seed,
		HopDelay:      r.HopDelay,
	}, nil
}

// Run simulates the experiment: Build, a network ticked on the calling
// goroutine, Warmup cycles discarded, Measure cycles reported.
func (e Experiment) Run() (stats.Snapshot, error) {
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
