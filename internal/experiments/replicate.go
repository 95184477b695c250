package experiments

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"vix/internal/harness"
	"vix/internal/topology"
)

// Replication summarises a metric over several independent seeds.
type Replication struct {
	Label  string
	Seeds  int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// ReplicateSaturation runs a scheme's saturation-throughput measurement
// under each of the (distinct) seeds — one grid point per seed — and
// returns the distribution: the confidence check behind every
// single-seed number the experiment harness reports.
func ReplicateSaturation(ctx context.Context, topo *topology.Topology, s Scheme, p Params, seeds []uint64, opt harness.Options) (Replication, error) {
	if len(seeds) == 0 {
		return Replication{}, fmt.Errorf("experiments: no seeds given")
	}
	pts := make([]GridPoint, len(seeds))
	for i, seed := range seeds {
		p.Seed = seed
		pts[i] = GridPoint{
			Labels: []string{"replicate", topo.Name, s.Label, strconv.FormatUint(seed, 10)},
			Spec:   experiment(topo, s, p, 0, true),
		}
	}
	snaps, err := RunGrid(ctx, pts, opt)
	if err != nil {
		return Replication{}, err
	}
	values := make([]float64, len(snaps))
	for i, snap := range snaps {
		values[i] = snap.ThroughputFlits
	}
	return summarise(s.Label, values), nil
}

// summarise computes the sample statistics of values.
func summarise(label string, values []float64) Replication {
	r := Replication{Label: label, Seeds: len(values), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, v := range values {
		sum += v
		r.Min = math.Min(r.Min, v)
		r.Max = math.Max(r.Max, v)
	}
	r.Mean = sum / float64(len(values))
	if len(values) > 1 {
		var ss float64
		for _, v := range values {
			d := v - r.Mean
			ss += d * d
		}
		r.StdDev = math.Sqrt(ss / float64(len(values)-1))
	}
	return r
}
