package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"vix/internal/config"
	"vix/internal/harness"
	"vix/internal/stats"
	"vix/internal/store"
	"vix/internal/topology"
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
	serial, err := Figure8(context.Background(), p, rates, harness.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Figure8(context.Background(), p, rates, harness.Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel rows differ from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}

	// A rerun against a populated manifest must return the same rows
	// without running a single simulation.
	manifest := filepath.Join(t.TempDir(), "fig8.jsonl")
	if _, err := Figure8(context.Background(), p, rates, harness.Options{Parallel: 4, Manifest: manifest}); err != nil {
		t.Fatal(err)
	}
	ran := 0
	resumed, err := Figure8(context.Background(), p, rates, harness.Options{
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
	cold, err := Figure8(context.Background(), p, rates, harness.Options{Parallel: 4, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Misses; got != points {
		t.Fatalf("cold pass over an empty store simulated %d points, want all %d", got, points)
	}
	var served atomic.Int64
	warm, err := Figure8(context.Background(), p, rates, harness.Options{
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
	if short[0].Spec.Seed == p.Seed {
		t.Fatal("grid point carries the root seed; sub-seed derivation missing")
	}
	// The 0.05 point exists in both grids at different indices; its
	// derived seed must be identical.
	if a, b := short[0].Spec.Seed, long[1].Spec.Seed; a != b {
		t.Fatalf("same labels derived different seeds at different grid positions: %d vs %d", a, b)
	}
	// Distinct points derive distinct seeds.
	if a, b := long[0].Spec.Seed, long[1].Spec.Seed; a == b {
		t.Fatal("distinct points derived the same seed")
	}
}

// TestJobIDCoversEveryExperimentField: a grid point's manifest identity
// is its labels and its whole config.Experiment, so a field added to the
// spec is part of the identity without anyone mirroring it anywhere.
func TestJobIDCoversEveryExperimentField(t *testing.T) {
	id := func(g GridPoint) string {
		t.Helper()
		id, err := harness.JobID(g.job())
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	base := Figure8Grid(tinyParams(), []float64{0.05})[0]
	want := id(base)
	relabelled := base
	relabelled.Labels = []string{"fig8", "IF", "0.06"}
	if id(relabelled) == want {
		t.Error("changing a label left the job ID unchanged")
	}
	typ := reflect.TypeOf(base.Spec)
	for i := 0; i < typ.NumField(); i++ {
		g := base
		switch f := reflect.ValueOf(&g.Spec).Elem().Field(i); f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.01)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		default:
			t.Fatalf("config.Experiment.%s is a %s; teach this test to perturb it", typ.Field(i).Name, f.Kind())
		}
		if id(g) == want {
			t.Errorf("changing config.Experiment.%s left the job ID unchanged", typ.Field(i).Name)
		}
	}
}

// TestValidateImpliesRun holds config.Experiment to its contract where
// the points come from: whatever Validate accepts, Run simulates — no
// error, and a snapshot of the requested cycles. The table is the three
// specs Validate used to misjudge plus every point of every grid
// artefact at tiny windows.
func TestValidateImpliesRun(t *testing.T) {
	p := DefaultParams()
	p.Warmup, p.Measure = 20, 60
	zeroRate, zeroMeasure, zeroCrossbar := config.Default(), config.Default(), config.Default()
	zeroRate.InjectionRate = 0
	zeroMeasure.Measure = 0
	zeroCrossbar.VCs, zeroCrossbar.BufDepth, zeroCrossbar.Warmup, zeroCrossbar.Measure = 0, 0, 20, 60
	type tcase struct {
		name   string
		spec   config.Experiment
		reject string // the field Validate must name; "" when it must accept
	}
	cases := []tcase{
		{"injection_rate 0 without max_injection", zeroRate, "injection_rate"},
		{"measure 0", zeroMeasure, "measure"},
		{"zero vcs and buf_depth take their defaults", zeroCrossbar, ""},
	}
	grids := [][]GridPoint{
		Figure8Grid(p, nil), figure9Grid(p), figure10Grid(p),
		energyGrid(topology.NewMesh(8, 8), p, 0.1), energyGrid(topology.NewFBfly(4, 4, 4), p, 0.05),
		figure12Grid(p), policiesGrid(p, nil), partitionGrid(p), pipelineGrid(p, 0.05),
		speculationGrid(p, 0.05), ksweepGrid(p), allocatorsGrid(p),
	}
	for _, grid := range grids {
		for _, g := range grid {
			cases = append(cases, tcase{strings.Join(g.Labels, "/"), g.Spec, ""})
		}
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if c.reject != "" {
			var ve config.ValidationError
			if !errors.As(err, &ve) || len(ve) != 1 || ve[0].Field != c.reject {
				t.Errorf("%s: Validate = %v, want a single %s finding", c.name, err, c.reject)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: Validate rejects it: %v", c.name, err)
			continue
		}
		snap, err := c.spec.Run()
		if err != nil {
			t.Errorf("%s: Validate accepts it but Run fails: %v", c.name, err)
		} else if snap.Cycles != int64(c.spec.Measure) {
			t.Errorf("%s: measured %d cycles, want %d", c.name, snap.Cycles, c.spec.Measure)
		}
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
