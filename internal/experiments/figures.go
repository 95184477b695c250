package experiments

import (
	"context"

	"vix/internal/energy"
	"vix/internal/harness"
	"vix/internal/router"
	"vix/internal/routerbench"
	"vix/internal/timing"
	"vix/internal/topology"
)

// --- Figure 7: single-router switch allocation efficiency ---

// Fig7Row is one (radix, scheme) point of Figure 7.
type Fig7Row struct {
	Radix         int
	Scheme        string
	FlitsPerCycle float64
	Efficiency    float64
	GainOverIF    float64 // throughput relative to IF at the same radix
}

// Figure7 runs the single-router testbench for radices 5, 8, and 10 with
// 6 VCs, single-flit packets, for IF, WF, AP, VIX, and ideal.
func Figure7(p Params) ([]Fig7Row, error) {
	radices := []int{5, 8, 10}
	res, err := routerbench.Figure7(radices, p.VCs, 1, p.Warmup, p.Measure, p.Seed)
	if err != nil {
		return nil, err
	}
	var rows []Fig7Row
	for i, radix := range radices {
		ifRate := res[i][0].FlitsPerCycle
		for j, s := range routerbench.Figure7Schemes() {
			r := res[i][j]
			rows = append(rows, Fig7Row{
				Radix:         radix,
				Scheme:        s.Label,
				FlitsPerCycle: r.FlitsPerCycle,
				Efficiency:    r.Efficiency,
				GainOverIF:    r.FlitsPerCycle / ifRate,
			})
		}
	}
	return rows, nil
}

// --- Figure 8: mesh latency and throughput versus offered load ---

// Fig8Point is one (scheme, injection-rate) sample.
type Fig8Point struct {
	Scheme     string
	Rate       float64 // offered packets/cycle/node; 0 marks saturation
	AvgLatency float64
	Throughput float64 // accepted flits/cycle/node
}

// Figure8Rates returns the default offered-load sweep (packets per cycle
// per node) for the 8x8 mesh with 4-flit packets.
func Figure8Rates() []float64 {
	return []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09}
}

// Figure8 sweeps offered load on the 8x8 mesh for the four network
// schemes and appends a saturation point (MaxInjection) per scheme. It
// is the serial form of Figure8Opt.
func Figure8(p Params, rates []float64) ([]Fig8Point, error) {
	return Figure8Opt(context.Background(), p, rates, harness.Serial())
}

// Figure8Grid builds the figure's simulation points: every scheme at
// every rate, plus a saturation point per scheme, in canonical order.
func Figure8Grid(p Params, rates []float64) []GridPoint {
	topo := topology.NewMesh(8, 8)
	if rates == nil {
		rates = Figure8Rates()
	}
	var pts []GridPoint
	for _, s := range NetworkSchemes() {
		for _, rate := range rates {
			pts = append(pts, GridPoint{
				Labels: []string{"fig8", s.Label, rateLabel(rate, false)},
				Config: buildConfig(topo, s, p, rate, false),
				Warmup: p.Warmup, Measure: p.Measure,
			})
		}
		pts = append(pts, GridPoint{
			Labels: []string{"fig8", s.Label, rateLabel(0, true)},
			Config: buildConfig(topo, s, p, 0, true),
			Warmup: p.Warmup, Measure: p.Measure,
		})
	}
	return pts
}

// Figure8Opt runs the Figure 8 grid through the harness — points fan out
// across opt.Parallel workers and the returned rows are in canonical
// order whatever the completion order.
func Figure8Opt(ctx context.Context, p Params, rates []float64, opt harness.Options) ([]Fig8Point, error) {
	if rates == nil {
		rates = Figure8Rates()
	}
	grid := Figure8Grid(p, rates)
	snaps, err := RunGrid(ctx, p.Seed, grid, opt)
	if err != nil {
		return nil, err
	}
	perScheme := len(rates) + 1
	pts := make([]Fig8Point, len(grid))
	for i, snap := range snaps {
		rate := 0.0
		if r := i % perScheme; r < len(rates) {
			rate = rates[r]
		}
		pts[i] = Fig8Point{
			Scheme:     NetworkSchemes()[i/perScheme].Label,
			Rate:       rate,
			AvgLatency: snap.AvgLatency,
			Throughput: snap.ThroughputFlits,
		}
	}
	return pts, nil
}

// --- Figure 9: fairness on the mesh ---

// Fig9Row is one scheme's fairness at saturation.
type Fig9Row struct {
	Scheme      string
	MaxMinRatio float64
	Throughput  float64
}

// Figure9 measures the max/min per-source throughput ratio on the 8x8
// mesh at maximum injection for all four schemes.
func Figure9(p Params) ([]Fig9Row, error) {
	topo := topology.NewMesh(8, 8)
	var rows []Fig9Row
	for _, s := range NetworkSchemes() {
		snap, err := SaturationThroughput(topo, s, p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig9Row{Scheme: s.Label, MaxMinRatio: snap.FairnessRatio, Throughput: snap.ThroughputFlits})
	}
	return rows, nil
}

// --- Figure 10: packet chaining comparison ---

// Fig10Row is one scheme's saturation throughput on single-flit packets.
type Fig10Row struct {
	Scheme     string
	Throughput float64 // flits/cycle/node
	GainOverIF float64
}

// Figure10 compares IF, WF, AP, PC, and VIX on the 8x8 mesh with
// single-flit uniform traffic at maximum injection (Section 4.4).
func Figure10(p Params) ([]Fig10Row, error) {
	p.PacketSize = 1
	topo := topology.NewMesh(8, 8)
	schemes := NetworkSchemes()
	// Insert packet chaining before VIX, matching the figure's ordering.
	schemes = append(schemes[:3:3], Scheme{Label: "PC", Kind: "pc", Policy: "maxfree", K: 1}, schemes[3])
	var rows []Fig10Row
	var ifThr float64
	for _, s := range schemes {
		snap, err := SaturationThroughput(topo, s, p)
		if err != nil {
			return nil, err
		}
		if s.Label == "IF" {
			ifThr = snap.ThroughputFlits
		}
		rows = append(rows, Fig10Row{Scheme: s.Label, Throughput: snap.ThroughputFlits})
	}
	for i := range rows {
		rows[i].GainOverIF = rows[i].Throughput / ifThr
	}
	return rows, nil
}

// --- Figure 11: network energy per bit ---

// Fig11Row is the energy breakdown for one configuration.
type Fig11Row struct {
	Scheme    string
	Breakdown energy.Breakdown
}

// Figure11 measures energy per bit for the baseline and VIX mesh at the
// paper's 0.1 packets/cycle/node operating point.
func Figure11(p Params) ([]Fig11Row, error) {
	return EnergyStudy(topology.NewMesh(8, 8), p, 0.1)
}

// EnergyStudy runs the Figure 11 methodology on any topology and load:
// the paper evaluates the mesh, but the same activity-driven model covers
// the higher-radix topologies (cmd/figures -topo fbfly fig11).
func EnergyStudy(topo *topology.Topology, p Params, rate float64) ([]Fig11Row, error) {
	params := energy.DefaultParams()
	schemes := []Scheme{NetworkSchemes()[0], NetworkSchemes()[3]} // IF, VIX
	var rows []Fig11Row
	for _, s := range schemes {
		snap, err := runOne(topo, s, p, rate, false)
		if err != nil {
			return nil, err
		}
		k := s.K
		b, err := energy.PerBit(params, snap, energy.Network{
			Routers: topo.NumRouters,
			XbarIn:  k * topo.Radix, XbarOut: topo.Radix,
			K: k, FlitBits: 128,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig11Row{Scheme: s.Label, Breakdown: b})
	}
	return rows, nil
}

// --- Figure 12: impact of increasing virtual inputs ---

// Fig12Row is one (topology, VCs, configuration) saturation throughput.
type Fig12Row struct {
	Topology   string
	VCs        int
	Config     string // "no VIX", "1:2 VIX", "ideal VIX"
	K          int
	Throughput float64
}

// Figure12 measures saturation throughput for no VIX (k=1), 1:2 VIX
// (k=2), and ideal VIX (k=v) on all three topologies with 4 and 6 VCs.
func Figure12(p Params) ([]Fig12Row, error) {
	var rows []Fig12Row
	for _, topo := range Topologies() {
		for _, vcs := range []int{4, 6} {
			q := p
			q.VCs = vcs
			cfgs := []struct {
				name string
				k    int
			}{
				{"no VIX", 1},
				{"1:2 VIX", 2},
				{"ideal VIX", vcs},
			}
			for _, c := range cfgs {
				s := Scheme{Label: c.name, Kind: "if", K: c.k, Policy: router12Policy(c.k)}
				snap, err := SaturationThroughput(topo, s, q)
				if err != nil {
					return nil, err
				}
				rows = append(rows, Fig12Row{
					Topology: topo.Name, VCs: vcs, Config: c.name, K: c.k,
					Throughput: snap.ThroughputFlits,
				})
			}
		}
	}
	return rows, nil
}

// router12Policy picks the VC-assignment policy for a Figure 12 point:
// sub-group aware once there is more than one virtual input.
func router12Policy(k int) router.PolicyKind {
	if k > 1 {
		return router.PolicyBalanced
	}
	return router.PolicyMaxFree
}

// --- Tables 1 and 3 re-exported for uniform access ---

// Table1 returns the router pipeline stage delays.
func Table1() []timing.StageDelays { return timing.Table1() }

// Table3 returns the switch-allocator delays.
func Table3() []timing.AllocatorDelay { return timing.Table3() }
