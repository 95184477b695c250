package experiments

import (
	"strconv"

	"vix/internal/alloc"
	"vix/internal/config"
	"vix/internal/energy"
	"vix/internal/routerbench"
	"vix/internal/stats"
	"vix/internal/topology"
)

// Fig7Row is one (radix, scheme) point of Figure 7.
type Fig7Row struct {
	Radix         int
	Scheme        string
	FlitsPerCycle float64
	Efficiency    float64
	GainOverIF    float64 // throughput relative to IF at the same radix
}

// Figure7 runs the single-router testbench for radices 5, 8, and 10 with
// base's VCs per port, windows and seed and single-flit packets, for IF,
// WF, AP, VIX, and ideal.
func Figure7(base config.Experiment) ([]Fig7Row, error) {
	schemes := append(networkSchemes(), scheme{Label: "Ideal", Kind: alloc.KindIdeal})
	var rows []Fig7Row
	for _, radix := range []int{5, 8, 10} {
		var ifRate float64
		for j, s := range schemes {
			r, err := routerbench.Run(routerbench.Config{
				Radix: radix, VCs: base.VCs, VirtualInputs: s.virtualInputs(base.VCs),
				AllocKind: s.Kind, Seed: base.Seed,
			}, base.Warmup, base.Measure)
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

// Figure8Grid builds Figure 8, latency and throughput versus offered
// load on the 8x8 mesh: every network scheme at 0.01 to 0.09
// packets/cycle/node, then a saturation point (MaxInjection), each
// labelled {"fig8", scheme, offered load} and label-seeded.
func Figure8Grid(base config.Experiment) []GridPoint {
	topo := topology.NewMesh(8, 8)
	var pts []GridPoint
	for _, s := range networkSchemes() {
		for _, rate := range []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09} {
			e := experiment(base, topo, s, rate, false)
			pts = append(pts, point(e, "fig8", s.Label, e.OfferedLabel()))
		}
		e := experiment(base, topo, s, 0, true)
		pts = append(pts, point(e, "fig8", s.Label, e.OfferedLabel()))
	}
	return pts
}

// saturationGrid is one saturated point per scheme on topo, labelled
// {study, scheme}, each on the study's root seed.
func saturationGrid(study string, topo *topology.Topology, schemes []scheme, base config.Experiment) []GridPoint {
	pts := make([]GridPoint, len(schemes))
	for i, s := range schemes {
		pts[i] = GridPoint{Labels: []string{study, s.Label}, Spec: experiment(base, topo, s, 0, true)}
	}
	return pts
}

// Figure9Grid builds Figure 9, fairness: the four network schemes on a
// saturated 8x8 mesh.
func Figure9Grid(base config.Experiment) []GridPoint {
	return saturationGrid("fig9", topology.NewMesh(8, 8), networkSchemes(), base)
}

// Figure10Grid builds Figure 10 (Section 4.4): IF, WF, AP, packet
// chaining and VIX on a saturated 8x8 mesh with single-flit packets.
func Figure10Grid(base config.Experiment) []GridPoint {
	base.PacketSize = 1
	schemes := networkSchemes()
	// Insert packet chaining before VIX, matching the figure's ordering.
	schemes = append(schemes[:3:3], scheme{Label: "PC", Kind: "pc", Policy: "maxfree", K: 1}, schemes[3])
	return saturationGrid("fig10", topology.NewMesh(8, 8), schemes, base)
}

// EnergyGrid builds Figure 11, energy per bit: IF then VIX on topo at
// the offered load, labelled {"fig11", topology, scheme, load}. The
// paper's figure is the 8x8 mesh at 0.1 packets/cycle/node; the same
// activity-driven model covers any topology and load.
func EnergyGrid(base config.Experiment, topo *topology.Topology, rate float64) []GridPoint {
	var pts []GridPoint
	for _, s := range []scheme{networkSchemes()[0], networkSchemes()[3]} {
		e := experiment(base, topo, s, rate, false)
		pts = append(pts, GridPoint{Labels: []string{"fig11", topo.Name, s.Label, e.OfferedLabel()}, Spec: e})
	}
	return pts
}

// Energy is Figure 11's model over an EnergyGrid on topo: each point's
// energy per bit, from the activity its snapshot counted.
func Energy(topo *topology.Topology, pts []GridPoint, snaps []stats.Snapshot) ([]energy.Breakdown, error) {
	bs := make([]energy.Breakdown, len(pts))
	for i, g := range pts {
		b, err := energy.PerBit(snaps[i], energy.Network{
			Routers: topo.NumRouters, Radix: topo.Radix, K: g.Spec.VirtualInputs,
		})
		if err != nil {
			return nil, err
		}
		bs[i] = b
	}
	return bs, nil
}

// Figure12Grid builds Figure 12, the impact of increasing virtual
// inputs: no VIX (k=1), 1:2 VIX (k=2) and ideal VIX (k=v), saturated, on
// all three topologies with 4 and 6 VCs, labelled {"fig12", topology,
// VCs, configuration}.
func Figure12Grid(base config.Experiment) []GridPoint {
	var pts []GridPoint
	for _, topo := range Topologies() {
		for _, vcs := range []int{4, 6} {
			base.VCs = vcs
			for _, c := range []struct {
				name string
				k    int
			}{
				{"no VIX", 1},
				{"1:2 VIX", 2},
				{"ideal VIX", vcs},
			} {
				s := scheme{Label: c.name, Kind: "if", K: c.k}
				pts = append(pts, GridPoint{
					Labels: []string{"fig12", topo.Name, strconv.Itoa(vcs), c.name},
					Spec:   experiment(base, topo, s, 0, true),
				})
			}
		}
	}
	return pts
}
