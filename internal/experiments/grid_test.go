package experiments

import (
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"vix/internal/harness"
	"vix/internal/stats"
	"vix/internal/store"
)

// tinyParams keeps grid tests fast: the determinism properties under
// test are window-size independent.
func tinyParams() Params {
	p := DefaultParams()
	p.Warmup = 150
	p.Measure = 400
	return p
}

// TestFigure8GridParallelDeterminism is the experiments-layer half of
// the harness guarantee: the same grid through 1 and 8 workers yields
// identical rows, and a manifest resume splices rather than recomputes.
func TestFigure8GridParallelDeterminism(t *testing.T) {
	p := tinyParams()
	rates := []float64{0.02, 0.05}
	serial, err := Figure8Opt(context.Background(), p, rates, harness.Serial())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Figure8Opt(context.Background(), p, rates, harness.Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel rows differ from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}

	// A rerun against a populated manifest must return the same rows
	// without running a single simulation.
	manifest := filepath.Join(t.TempDir(), "fig8.jsonl")
	if _, err := Figure8Opt(context.Background(), p, rates, harness.Options{Parallel: 4, Manifest: manifest}); err != nil {
		t.Fatal(err)
	}
	ran := 0
	resumed, err := Figure8Opt(context.Background(), p, rates, harness.Options{
		Parallel: 4, Manifest: manifest,
		OnDone: func(r harness.Result) {
			if !r.Cached {
				ran++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Errorf("resume against a complete manifest re-ran %d jobs", ran)
	}
	if !reflect.DeepEqual(serial, resumed) {
		t.Fatal("resumed rows differ from serial rows")
	}

	// The same over a shared in-memory store, as vixd holds one: a cold
	// pass simulates every point once, and a replay of the identical grid
	// simulates nothing — the miss count stays at the grid size, every
	// result is served — and returns the serial rows.
	st := store.Memory()
	points := int64(len(Figure8Grid(p, rates)))
	cold, err := Figure8Opt(context.Background(), p, rates, harness.Options{Parallel: 4, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Misses; got != points {
		t.Fatalf("cold pass over an empty store simulated %d points, want all %d", got, points)
	}
	var served atomic.Int64
	warm, err := Figure8Opt(context.Background(), p, rates, harness.Options{
		Parallel: 4, Store: st,
		OnDone: func(r harness.Result) {
			if r.Cached {
				served.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Misses; got != points {
		t.Errorf("warm replay simulated %d points; every one must be served from the store", got-points)
	}
	if served.Load() != points {
		t.Errorf("warm replay reported %d of %d results as cached", served.Load(), points)
	}
	if !reflect.DeepEqual(serial, cold) || !reflect.DeepEqual(serial, warm) {
		t.Fatalf("store-backed rows differ from serial:\nserial: %+v\ncold:   %+v\nwarm:   %+v", serial, cold, warm)
	}
}

// TestGridSeedsAreLabelKeyed: a point's seed must depend on its labels,
// not its position, so inserting a point never re-seeds its neighbours.
func TestGridSeedsAreLabelKeyed(t *testing.T) {
	p := tinyParams()
	short := Figure8Grid(p, []float64{0.05})
	long := Figure8Grid(p, []float64{0.02, 0.05})
	seed := func(g GridPoint) uint64 {
		cfg := g.Config
		var spec pointSpec
		raw, err := json.Marshal(g.Job(p.Seed).Spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &spec); err != nil {
			t.Fatal(err)
		}
		if spec.Seed == cfg.Seed {
			t.Fatal("job spec carries the root seed; sub-seed derivation missing")
		}
		return spec.Seed
	}
	// The 0.05 point exists in both grids at different indices; its
	// derived seed must be identical.
	if a, b := seed(short[0]), seed(long[1]); a != b {
		t.Fatalf("same labels derived different seeds at different grid positions: %d vs %d", a, b)
	}
	// Distinct points derive distinct seeds.
	if a, b := seed(long[0]), seed(long[1]); a == b {
		t.Fatal("distinct points derived the same seed")
	}
}

// TestSnapshotRecordRoundTripsInfinity: starved sources make the
// fairness ratio +Inf, which must survive the manifest's JSON layer.
func TestSnapshotRecordRoundTripsInfinity(t *testing.T) {
	for _, v := range []float64{1.5, math.Inf(1), math.NaN()} {
		rec := toRecord(snapshotFor(v))
		raw, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("marshal with fairness %v: %v", v, err)
		}
		var back snapshotRecord
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("unmarshal with fairness %v: %v", v, err)
		}
		got := back.snapshot().FairnessRatio
		switch {
		case math.IsNaN(v):
			if !math.IsNaN(got) {
				t.Errorf("NaN fairness round-tripped to %v", got)
			}
		default:
			if got != v {
				t.Errorf("fairness %v round-tripped to %v", v, got)
			}
		}
	}
}

func snapshotFor(fairness float64) stats.Snapshot {
	var s stats.Snapshot
	s.FairnessRatio = fairness
	s.Cycles = 100
	return s
}
