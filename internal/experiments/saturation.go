package experiments

import (
	"fmt"

	"vix/internal/topology"
)

// SaturationResult reports the located saturation point of a
// configuration.
type SaturationResult struct {
	// Rate is the highest offered load (packets/cycle/node) the network
	// still accepts within tolerance.
	Rate float64
	// Latency is the average packet latency at that rate.
	Latency float64
	// Throughput is accepted flits/cycle/node at that rate.
	Throughput float64
}

// FindSaturation binary-searches for the saturation injection rate of a
// scheme on a topology: the largest offered load whose accepted packet
// throughput stays within accept (e.g. 0.95) of the offered load. The
// search brackets [lo, hi] in packets/cycle/node and runs probes of
// p.Warmup+p.Measure cycles each, one after the other: each probe's
// rate depends on the last one's answer, so this is not a grid.
func FindSaturation(topo *topology.Topology, s Scheme, p Params, accept float64) (SaturationResult, error) {
	lo, hi := 0.005, 1.0/float64(p.PacketSize)
	var best SaturationResult
	probe := func(rate float64) (bool, SaturationResult, error) {
		snap, err := experiment(topo, s, p, rate, false).Run(p.TickWorkers)
		if err != nil {
			return false, SaturationResult{}, fmt.Errorf("experiments: %s on %s: %w", s.Label, topo.Name, err)
		}
		res := SaturationResult{Rate: rate, Latency: snap.AvgLatency, Throughput: snap.ThroughputFlits}
		return snap.ThroughputPackets >= accept*rate, res, nil
	}
	// Ensure the bracket is valid: lo must accept, otherwise report it
	// directly; hi is beyond saturation for every scheme studied.
	ok, res, err := probe(lo)
	if err != nil {
		return SaturationResult{}, err
	}
	if !ok {
		return res, nil
	}
	best = res
	for i := 0; i < 10 && hi-lo > 0.002; i++ {
		mid := (lo + hi) / 2
		ok, res, err := probe(mid)
		if err != nil {
			return SaturationResult{}, err
		}
		if ok {
			lo, best = mid, res
		} else {
			hi = mid
		}
	}
	return best, nil
}
