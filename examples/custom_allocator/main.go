// Custom allocator: the router accepts any switch allocator implementing
// the vix.Allocator interface. This example implements an output-first
// separable allocator — the mirror image of the built-in input-first
// scheme: each output port first picks one requesting VC, then each
// crossbar row picks among the outputs that chose it — registers it under
// a new kind, and races it against the built-ins on a saturated mesh.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"vix"
)

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

func (o *outputFirst) Name() string { return "output-first" }

func (o *outputFirst) Reset() {
	for i := range o.outPtr {
		o.outPtr[i] = 0
	}
	for i := range o.rowPtr {
		o.rowPtr[i] = 0
	}
}

func (o *outputFirst) Allocate(rs *vix.RequestSet) []vix.SwitchGrant {
	rows := o.cfg.Rows()
	// Request indices keyed by (row, outPort). Requests arrive in (port,
	// VC) order, so each cell keeps its lowest requesting VC: a cell's
	// other VCs wait until that one is served, and nothing rotates among
	// them.
	byCell := make(map[[2]int]int, len(rs.Requests))
	rowReq := make([][]bool, rows)
	for i := range rowReq {
		rowReq[i] = make([]bool, o.cfg.Ports)
	}
	for i, r := range rs.Requests {
		row := o.cfg.Row(r.Port, r.VC)
		key := [2]int{row, r.OutPort}
		if _, ok := byCell[key]; !ok {
			byCell[key] = i
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
			Req: byCell[[2]int{row, accepted}], OutPort: accepted, Row: row,
		})
		o.rowPtr[row] = (accepted + 1) % o.cfg.Ports
		o.outPtr[accepted] = (row + 1) % rows
	}
	return grants
}

// check drives a fresh allocator with random request sets — at most one
// request per (port, VC), each to a random output — and holds every grant
// set to the allocator contract with vix.ValidateGrants.
func check(cfg vix.AllocatorConfig, cycles int) error {
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

func saturation(kind vix.AllocatorKind, k int) vix.Snapshot {
	e := vix.DefaultExperiment() // 8x8 mesh, 6 VCs x 5 flits, 4-flit packets
	e.Allocator = string(kind)
	e.VirtualInputs = k // the policy defaults to maxfree at k = 1, balanced above
	e.MaxInjection, e.InjectionRate = true, 0
	e.Warmup, e.Measure = 1500, 5000
	s, err := e.Run()
	if err != nil {
		log.Fatal(err)
	}
	return s
}

func main() {
	const kindOutputFirst = vix.AllocatorKind("output-first")
	for _, k := range []int{1, 2} {
		if err := check(vix.AllocatorConfig{Ports: 5, VCs: 6, VirtualInputs: k}, 1000); err != nil {
			log.Fatalf("output-first, k=%d: %v", k, err)
		}
	}
	if err := vix.RegisterAllocator(kindOutputFirst, newOutputFirst); err != nil {
		log.Fatal(err)
	}

	fmt.Println("Saturated 8x8 mesh, 6 VCs, 4-flit packets")
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
		s := saturation(c.kind, c.k)
		fmt.Printf("%-24s %.4f flits/cycle/node, %.1f cycles avg latency\n",
			c.label, s.ThroughputFlits, s.AvgLatency)
	}
	fmt.Println("\nVIX composes with any separable allocator: both input-first and the")
	fmt.Println("custom output-first scheme gain throughput from the wider crossbar.")
}
