package vix_test

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"vix"
)

// Example simulates the paper's 8x8 mesh twice under the same
// near-saturation load — once with the conventional separable
// input-first allocator and once with VIX (two virtual inputs per port)
// — and prints the latency, throughput and fairness of both. Simulations
// are deterministic for a given seed.
func Example() {
	// The default spec is the paper's 8x8 mesh: 6 VCs x 5 flits, separable
	// input-first allocation, uniform random 4-flit (512-bit over a
	// 128-bit datapath) packets.
	baseline := vix.DefaultExperiment()
	baseline.InjectionRate = 0.09 // packets/cycle/node, near mesh saturation
	baseline.Policy = "maxfree"
	baseline.Warmup, baseline.Measure = 1000, 3000
	withVIX := baseline
	withVIX.VirtualInputs = 2
	withVIX.Policy = "balanced" // dimension-aware + load-balanced VC assignment

	base, vixRes := run(baseline), run(withVIX)
	fmt.Println("8x8 mesh, uniform random, 0.09 packets/cycle/node, 6 VCs x 5 flits")
	fmt.Printf("%-22s %12s %12s\n", "", "baseline IF", "VIX (k=2)")
	fmt.Printf("%-22s %12.2f %12.2f\n", "avg latency (cycles)", base.AvgLatency, vixRes.AvgLatency)
	fmt.Printf("%-22s %12.4f %12.4f\n", "flits/cycle/node", base.ThroughputFlits, vixRes.ThroughputFlits)
	fmt.Printf("%-22s %12.2f %12.2f\n", "fairness (max/min)", base.FairnessRatio, vixRes.FairnessRatio)
	fmt.Printf("VIX latency change at this load: %+.1f%%\n", 100*(vixRes.AvgLatency/base.AvgLatency-1))
	// Output:
	// 8x8 mesh, uniform random, 0.09 packets/cycle/node, 6 VCs x 5 flits
	//                         baseline IF    VIX (k=2)
	// avg latency (cycles)          51.77        38.72
	// flits/cycle/node             0.3587       0.3582
	// fairness (max/min)             1.34         1.33
	// VIX latency change at this load: -25.2%
}

// run simulates e, panicking on an invalid spec.
func run(e vix.Experiment) vix.Snapshot {
	s, err := e.Run()
	if err != nil {
		panic(err)
	}
	return s
}

// ExampleLoadExperiment reads one of the shipped JSON experiments; the
// fields it leaves out take their defaults.
func ExampleLoadExperiment() {
	e, err := vix.LoadExperiment("configs/mesh_vix_saturation.json")
	if err != nil {
		panic(err)
	}
	fmt.Println(e.Topology, e.VirtualInputs, e.Allocator, e.MaxInjection, e.OfferedLabel())
	// Output:
	// mesh 2 if true saturation
}

// ExampleRegisterAllocator plugs a custom switch allocator into the
// router: an output-first separable allocator, the mirror image of the
// built-in input-first scheme. It is held to the allocator contract with
// ValidateGrants on random request sets, registered under a new kind,
// and raced against the built-in input-first allocator with and without
// VIX on a saturated 4x4 mesh. VIX composes with any separable allocator:
// both gain throughput from the wider crossbar.
func ExampleRegisterAllocator() {
	for _, k := range []int{1, 2} {
		if err := checkGrants(vix.AllocatorConfig{Ports: 5, VCs: 6, VirtualInputs: k}, 1000); err != nil {
			panic(fmt.Sprintf("output-first, k=%d: %v", k, err))
		}
	}
	// A kind is registered once per process; a second registration
	// under the same kind is refused.
	registerOutputFirst.Do(func() {
		if err := vix.RegisterAllocator(kindOutputFirst, newOutputFirst); err != nil {
			panic(err)
		}
	})

	for _, c := range []struct {
		label string
		kind  vix.AllocatorKind
		k     int
	}{
		{"input-first (built-in)", "if", 1},
		{"output-first (custom)", kindOutputFirst, 1},
		{"output-first + VIX", kindOutputFirst, 2},
		{"input-first + VIX", "if", 2},
	} {
		e := vix.DefaultExperiment() // 6 VCs x 5 flits, 4-flit packets
		e.Width, e.Height = 4, 4
		e.Allocator = string(c.kind)
		e.VirtualInputs = c.k // the policy defaults to maxfree at k = 1, balanced above
		e.MaxInjection, e.InjectionRate = true, 0
		e.Warmup, e.Measure = 500, 1500
		s := run(e)
		fmt.Printf("%-24s %.4f flits/cycle/node, %.1f cycles avg latency\n",
			c.label, s.ThroughputFlits, s.AvgLatency)
	}
	// Output:
	// input-first (built-in)   0.6688 flits/cycle/node, 101.6 cycles avg latency
	// output-first (custom)    0.7129 flits/cycle/node, 78.9 cycles avg latency
	// output-first + VIX       0.8127 flits/cycle/node, 60.9 cycles avg latency
	// input-first + VIX        0.8218 flits/cycle/node, 63.9 cycles avg latency
}

const kindOutputFirst = vix.AllocatorKind("output-first")

var registerOutputFirst sync.Once

// outputFirst is a separable output-first allocator. Phase one: every
// output port selects one requesting (row, VC) by rotating priority.
// Phase two: every crossbar row selects one of the outputs that picked
// it. Like input-first separable allocation it needs no iteration, and
// it suffers the mirrored coordination problem: two outputs may pick the
// same row and one loses.
type outputFirst struct {
	cfg    vix.AllocatorConfig
	outPtr []int // rotating priority per output port over rows
	rowPtr []int // rotating priority per row over outputs
}

func newOutputFirst(cfg vix.AllocatorConfig) (vix.Allocator, error) {
	return &outputFirst{
		cfg:    cfg,
		outPtr: make([]int, cfg.Ports),
		rowPtr: make([]int, cfg.Rows()),
	}, nil
}

func (o *outputFirst) Name() string { return string(kindOutputFirst) }

func (o *outputFirst) Reset() {
	clear(o.outPtr)
	clear(o.rowPtr)
}

func (o *outputFirst) Allocate(rs *vix.RequestSet) []vix.SwitchGrant {
	rows := o.cfg.Rows()
	// Input VCs (port*VCs + VC) keyed by (row, outPort). Requests arrive
	// in (port, VC) order, so each cell keeps its lowest requesting VC: a
	// cell's other VCs wait until that one is served, and nothing rotates
	// among them.
	byCell := make(map[[2]int]int, len(rs.Requests))
	rowReq := make([][]bool, rows)
	for i := range rowReq {
		rowReq[i] = make([]bool, o.cfg.Ports)
	}
	for _, r := range rs.Requests {
		row := o.cfg.Row(r.Port, r.VC)
		key := [2]int{row, r.OutPort}
		if _, ok := byCell[key]; !ok {
			byCell[key] = r.Port*o.cfg.VCs + r.VC
		}
		rowReq[row][r.OutPort] = true
	}

	// Phase one: each output picks a row.
	pick := make([]int, o.cfg.Ports) // chosen row per output, -1 if none
	for out := range pick {
		pick[out] = -1
		for i := 0; i < rows; i++ {
			row := (o.outPtr[out] + i) % rows
			if rowReq[row][out] {
				pick[out] = row
				break
			}
		}
	}

	// Phase two: each row accepts one of the outputs that picked it.
	var grants []vix.SwitchGrant
	for row := 0; row < rows; row++ {
		accepted := -1
		for i := 0; i < o.cfg.Ports; i++ {
			out := (o.rowPtr[row] + i) % o.cfg.Ports
			if pick[out] == row {
				accepted = out
				break
			}
		}
		if accepted < 0 {
			continue
		}
		grants = append(grants, vix.SwitchGrant{
			IVC: byCell[[2]int{row, accepted}], OutPort: accepted, Row: row,
		})
		o.rowPtr[row] = (accepted + 1) % o.cfg.Ports
		o.outPtr[accepted] = (row + 1) % rows
	}
	return grants
}

// checkGrants drives a fresh output-first allocator with random request
// sets — at most one request per (port, VC), each to a random output —
// and holds every grant set to the allocator contract with
// vix.ValidateGrants.
func checkGrants(cfg vix.AllocatorConfig, cycles int) error {
	a, err := newOutputFirst(cfg)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(1, 2))
	rs := &vix.RequestSet{Config: cfg}
	for c := 0; c < cycles; c++ {
		rs.Requests = rs.Requests[:0]
		for port := 0; port < cfg.Ports; port++ {
			for vc := 0; vc < cfg.VCs; vc++ {
				if rng.IntN(2) == 0 {
					rs.Requests = append(rs.Requests, vix.SwitchRequest{Port: port, VC: vc, OutPort: rng.IntN(cfg.Ports)})
				}
			}
		}
		if err := vix.ValidateGrants(rs, a.Allocate(rs)); err != nil {
			return fmt.Errorf("cycle %d: %w", c, err)
		}
	}
	return nil
}
