package experiments

import (
	"context"
	"strconv"

	"vix/internal/alloc"
	"vix/internal/energy"
	"vix/internal/harness"
	"vix/internal/routerbench"
	"vix/internal/stats"
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
// p.VCs VCs per port and single-flit packets, for IF, WF, AP, VIX, and
// ideal.
func Figure7(p Params) ([]Fig7Row, error) {
	schemes := append(NetworkSchemes(), Scheme{Label: "Ideal", Kind: alloc.KindIdeal})
	var rows []Fig7Row
	for _, radix := range []int{5, 8, 10} {
		var ifRate float64
		for j, s := range schemes {
			r, err := routerbench.Run(routerbench.Config{
				Radix: radix, VCs: p.VCs, VirtualInputs: s.virtualInputs(p.VCs),
				AllocKind: s.Kind, PacketSize: 1, Seed: p.Seed,
			}, p.Warmup, p.Measure)
			if err != nil {
				return nil, err
			}
			if j == 0 { // IF is the first scheme
				ifRate = r.FlitsPerCycle
			}
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

// Figure8Grid builds the figure's simulation points: every scheme at
// every rate, plus a saturation point (MaxInjection) per scheme, in
// canonical order.
func Figure8Grid(p Params, rates []float64) []GridPoint {
	topo := topology.NewMesh(8, 8)
	if rates == nil {
		rates = Figure8Rates()
	}
	var pts []GridPoint
	for _, s := range NetworkSchemes() {
		for _, rate := range rates {
			e := experiment(topo, s, p, rate, false)
			pts = append(pts, point(e, "fig8", s.Label, e.OfferedLabel()))
		}
		e := experiment(topo, s, p, 0, true)
		pts = append(pts, point(e, "fig8", s.Label, e.OfferedLabel()))
	}
	return pts
}

// Figure8 sweeps offered load on the 8x8 mesh for the four network
// schemes. Like every grid below, the points fan out across
// opt.Parallel workers and the returned rows are in canonical order
// whatever the completion order.
func Figure8(ctx context.Context, p Params, rates []float64, opt harness.Options) ([]Fig8Point, error) {
	return gridRows(ctx, opt, Figure8Grid(p, rates), func(g GridPoint, snap stats.Snapshot) Fig8Point {
		return Fig8Point{Scheme: g.Labels[1], Rate: g.Spec.InjectionRate, AvgLatency: snap.AvgLatency, Throughput: snap.ThroughputFlits}
	})
}

// saturationGrid is one saturated point per scheme on topo, each on the
// study's root seed.
func saturationGrid(study string, topo *topology.Topology, schemes []Scheme, p Params) []GridPoint {
	pts := make([]GridPoint, len(schemes))
	for i, s := range schemes {
		pts[i] = GridPoint{Labels: []string{study, s.Label}, Spec: experiment(topo, s, p, 0, true)}
	}
	return pts
}

// --- Figure 9: fairness on the mesh ---

// Fig9Row is one scheme's fairness at saturation.
type Fig9Row struct {
	Scheme      string
	MaxMinRatio float64
	Throughput  float64
}

func figure9Grid(p Params) []GridPoint {
	return saturationGrid("fig9", topology.NewMesh(8, 8), NetworkSchemes(), p)
}

// Figure9 measures the max/min per-source throughput ratio on the 8x8
// mesh at maximum injection for all four schemes.
func Figure9(ctx context.Context, p Params, opt harness.Options) ([]Fig9Row, error) {
	return gridRows(ctx, opt, figure9Grid(p), func(g GridPoint, snap stats.Snapshot) Fig9Row {
		return Fig9Row{Scheme: g.Labels[1], MaxMinRatio: snap.FairnessRatio, Throughput: snap.ThroughputFlits}
	})
}

// --- Figure 10: packet chaining comparison ---

// Fig10Row is one scheme's saturation throughput on single-flit packets.
type Fig10Row struct {
	Scheme     string
	Throughput float64 // flits/cycle/node
	GainOverIF float64
}

func figure10Grid(p Params) []GridPoint {
	p.PacketSize = 1
	schemes := NetworkSchemes()
	// Insert packet chaining before VIX, matching the figure's ordering.
	schemes = append(schemes[:3:3], Scheme{Label: "PC", Kind: "pc", Policy: "maxfree", K: 1}, schemes[3])
	return saturationGrid("fig10", topology.NewMesh(8, 8), schemes, p)
}

// Figure10 compares IF, WF, AP, PC, and VIX on the 8x8 mesh with
// single-flit uniform traffic at maximum injection (Section 4.4).
func Figure10(ctx context.Context, p Params, opt harness.Options) ([]Fig10Row, error) {
	rows, err := gridRows(ctx, opt, figure10Grid(p), func(g GridPoint, snap stats.Snapshot) Fig10Row {
		return Fig10Row{Scheme: g.Labels[1], Throughput: snap.ThroughputFlits}
	})
	for i := range rows {
		rows[i].GainOverIF = rows[i].Throughput / rows[0].Throughput // IF is the first scheme
	}
	return rows, err
}

// --- Figure 11: network energy per bit ---

// Fig11Row is the energy breakdown for one configuration.
type Fig11Row struct {
	Scheme    string
	Breakdown energy.Breakdown
}

// Figure11 measures energy per bit for the baseline and VIX mesh at the
// paper's 0.1 packets/cycle/node operating point.
func Figure11(ctx context.Context, p Params, opt harness.Options) ([]Fig11Row, error) {
	return EnergyStudy(ctx, topology.NewMesh(8, 8), p, 0.1, opt)
}

func energyGrid(topo *topology.Topology, p Params, rate float64) []GridPoint {
	var pts []GridPoint
	for _, s := range []Scheme{NetworkSchemes()[0], NetworkSchemes()[3]} { // IF, VIX
		e := experiment(topo, s, p, rate, false)
		pts = append(pts, GridPoint{Labels: []string{"fig11", topo.Name, s.Label, e.OfferedLabel()}, Spec: e})
	}
	return pts
}

// EnergyStudy runs the Figure 11 methodology on any topology and load:
// the paper evaluates the mesh, but the same activity-driven model covers
// the higher-radix topologies (cmd/figures -topo fbfly fig11).
func EnergyStudy(ctx context.Context, topo *topology.Topology, p Params, rate float64, opt harness.Options) ([]Fig11Row, error) {
	grid := energyGrid(topo, p, rate)
	snaps, err := RunGrid(ctx, grid, opt)
	if err != nil {
		return nil, err
	}
	params := energy.DefaultParams()
	rows := make([]Fig11Row, len(grid))
	for i, snap := range snaps {
		k := grid[i].Spec.VirtualInputs
		b, err := energy.PerBit(params, snap, energy.Network{
			Routers: topo.NumRouters,
			XbarIn:  k * topo.Radix, XbarOut: topo.Radix,
			K: k, FlitBits: 128,
		})
		if err != nil {
			return nil, err
		}
		rows[i] = Fig11Row{Scheme: grid[i].Labels[2], Breakdown: b}
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

func figure12Grid(p Params) []GridPoint {
	var pts []GridPoint
	for _, topo := range Topologies() {
		for _, vcs := range []int{4, 6} {
			q := p
			q.VCs = vcs
			for _, c := range []struct {
				name string
				k    int
			}{
				{"no VIX", 1},
				{"1:2 VIX", 2},
				{"ideal VIX", vcs},
			} {
				s := Scheme{Label: c.name, Kind: "if", K: c.k}
				pts = append(pts, GridPoint{
					Labels: []string{"fig12", topo.Name, strconv.Itoa(vcs), c.name},
					Spec:   experiment(topo, s, q, 0, true),
				})
			}
		}
	}
	return pts
}

// Figure12 measures saturation throughput for no VIX (k=1), 1:2 VIX
// (k=2), and ideal VIX (k=v) on all three topologies with 4 and 6 VCs.
func Figure12(ctx context.Context, p Params, opt harness.Options) ([]Fig12Row, error) {
	return gridRows(ctx, opt, figure12Grid(p), func(g GridPoint, snap stats.Snapshot) Fig12Row {
		return Fig12Row{Topology: g.Labels[1], VCs: g.Spec.VCs, Config: g.Labels[3], K: g.Spec.VirtualInputs, Throughput: snap.ThroughputFlits}
	})
}

// --- Tables 1 and 3 re-exported for uniform access ---

// Table1 returns the router pipeline stage delays.
func Table1() []timing.StageDelays { return timing.Table1() }

// Table3 returns the switch-allocator delays.
func Table3() []timing.AllocatorDelay { return timing.Table3() }
