package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"vix/internal/config"
	"vix/internal/harness"
	"vix/internal/sim"
	"vix/internal/stats"
)

// This file is the bridge between the grid builders and the parallel
// harness: RunGrid fans a grid's points out across workers while keeping
// the merged output byte-identical to a serial run. A point's RNG
// seed is part of its spec, fixed when the grid is built and never by
// execution order, so a point replays identically wherever it runs.

// GridPoint is one simulation of an experiment grid, and — as is — the
// spec its harness job is content-hashed by.
type GridPoint struct {
	// Labels identify the point, e.g. {"fig8", "VIX", "0.05"}. They must
	// be unique within a grid and stable across runs.
	Labels []string `json:"labels"`
	// Spec is the simulation, seed included.
	Spec config.Experiment `json:"spec"`
}

// point is the grid point of a label-seeded study (Figure 8 and the
// ablations): e's seed, the study's root, is replaced by a sub-seed
// derived from it and the labels, so inserting a point never re-seeds
// its neighbours. Figures 9-12 run every point on the root seed itself
// and build their GridPoints directly.
func point(e config.Experiment, labels ...string) GridPoint {
	e.Seed = sim.DeriveSeed(e.Seed, labels...)
	return GridPoint{Labels: labels, Spec: e}
}

// job converts the point into the harness job that simulates it.
func (g GridPoint) job() harness.Job {
	name := strings.Join(g.Labels, "/")
	return harness.Job{
		Name:   name,
		Spec:   g,
		Cycles: int64(g.Spec.Warmup + g.Spec.Measure),
		Run: func(context.Context) (any, error) {
			s, err := g.Spec.Run()
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", name, err)
			}
			return toRecord(s), nil
		},
	}
}

// RunGrid executes the points through the harness and returns one
// snapshot per point, in grid order, regardless of the worker count.
func RunGrid(ctx context.Context, pts []GridPoint, opt harness.Options) ([]stats.Snapshot, error) {
	jobs := make([]harness.Job, len(pts))
	for i, g := range pts {
		jobs[i] = g.job()
	}
	res, err := harness.Run(ctx, jobs, opt)
	if err != nil {
		return nil, err
	}
	recs, err := harness.DecodeAll[snapshotRecord](res)
	if err != nil {
		return nil, err
	}
	snaps := make([]stats.Snapshot, len(recs))
	for i, r := range recs {
		snaps[i] = r.snapshot()
	}
	return snaps, nil
}

// snapshotRecord is the manifest encoding of a stats.Snapshot. Fairness
// travels separately as a jsonFloat because max/min throughput is +Inf
// when a source starves — legal data that encoding/json rejects for a
// plain float64 field.
type snapshotRecord struct {
	stats.Snapshot
	Fairness jsonFloat `json:"fairness"`
}

func toRecord(s stats.Snapshot) snapshotRecord {
	r := snapshotRecord{Snapshot: s, Fairness: jsonFloat(s.FairnessRatio)}
	// Zero the promoted field: +Inf would poison json.Marshal, and the
	// value already travels via Fairness.
	r.FairnessRatio = 0
	return r
}

func (r snapshotRecord) snapshot() stats.Snapshot {
	s := r.Snapshot
	s.FairnessRatio = float64(r.Fairness)
	return s
}

// jsonFloat round-trips non-finite floats through JSON as strings
// ("+Inf", "NaN"), which strconv.ParseFloat reads back exactly.
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return json.Marshal(fmt.Sprint(v))
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	var v float64
	if err := json.Unmarshal(b, &v); err == nil {
		*f = jsonFloat(v)
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("experiments: fairness value %s is neither number nor string", b)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("experiments: parsing fairness %q: %w", s, err)
	}
	*f = jsonFloat(v)
	return nil
}
