package routing_test

import (
	"math"
	"testing"

	"vix/internal/config"
	"vix/internal/routing"
	"vix/internal/topology"
)

// maxChannelLoad returns γ_max, the busiest channel's load under uniform
// traffic routed by DOR, in flits per cycle per flit/node/cycle offered.
// Every (src, dst) path with src ≠ dst is walked and weighted 1/(N−1),
// as the uniform pattern draws it. A channel is a router output port: a
// link, or the local port a flit ejects through. Each node's injection
// channel carries load 1, so γ_max is at least 1.
func maxChannelLoad(t *topology.Topology) float64 {
	tab := routing.Compile(t)
	load := make([]float64, t.NumRouters*t.Radix)
	w := 1 / float64(t.NumNodes-1)
	for src := 0; src < t.NumNodes; src++ {
		for dst := 0; dst < t.NumNodes; dst++ {
			if src == dst {
				continue
			}
			r := t.NodeRouter[src]
			for hops := 0; r != t.NodeRouter[dst]; hops++ {
				if hops > t.NumRouters {
					panic("routing_test: route did not converge")
				}
				p := tab.Port(r, dst)
				load[r*t.Radix+p] += w
				r = int(t.Conn[r][p].PeerRouter)
			}
			load[r*t.Radix+t.LocalPort(dst)] += w
		}
	}
	gamma := 1.0
	for _, l := range load {
		gamma = max(gamma, l)
	}
	return gamma
}

// TestSaturationUnderChannelLoadCeiling: no network delivers more than
// 1/γ_max flits/node/cycle of uniform traffic, the ideal throughput of
// its topology and routing (Dally & Towles, ch. 3). Each saturated run
// must stay under its ceiling; the log reports how close it gets.
func TestSaturationUnderChannelLoadCeiling(t *testing.T) {
	ceilings := map[string]float64{"mesh": 0.492, "cmesh": 0.246, "fbfly": 0.984, "torus": 0.788}
	for _, topo := range []string{"mesh", "cmesh", "fbfly", "torus"} {
		for _, k := range []int{1, 2} {
			e := config.Default()
			e.Topology, e.VirtualInputs, e.MaxInjection = topo, k, true
			e.Warmup, e.Measure = 1000, 3000
			cfg, err := e.Build()
			if err != nil {
				t.Fatal(err)
			}
			ceiling := 1 / maxChannelLoad(cfg.Topology)
			if math.Abs(ceiling-ceilings[topo]) > 0.0005 {
				t.Errorf("%s: ceiling %.4f flits/node/cycle, want %.3f", cfg.Topology.Name, ceiling, ceilings[topo])
			}
			s, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if s.ThroughputFlits >= ceiling {
				t.Errorf("%s k=%d: saturated throughput %.4f reaches the channel-load ceiling %.4f",
					cfg.Topology.Name, k, s.ThroughputFlits, ceiling)
			}
			t.Logf("%s k=%d: %.4f of %.4f flits/node/cycle (%.0f %% of the ceiling)",
				cfg.Topology.Name, k, s.ThroughputFlits, ceiling, 100*s.ThroughputFlits/ceiling)
		}
	}
}
