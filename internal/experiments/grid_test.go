package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"vix/internal/config"
	"vix/internal/harness"
	"vix/internal/sim"
	"vix/internal/stats"
	"vix/internal/store"
	"vix/internal/topology"
)

// tinyBase keeps grid tests fast: the determinism properties under
// test are window-size independent.
func tinyBase() config.Experiment {
	b := config.Default()
	b.Warmup, b.Measure = 150, 400
	return b
}

// allGrids is every grid cmd/figures prints, built over base; fig11's at
// its default topology and load and at its fbfly golden's.
func allGrids(base config.Experiment) [][]GridPoint {
	return [][]GridPoint{
		Figure8Grid(base), Figure9Grid(base), Figure10Grid(base),
		EnergyGrid(base, topology.NewMesh(8, 8), 0.1), EnergyGrid(base, topology.NewFBfly(4, 4, 4), 0.05),
		Figure12Grid(base), PoliciesGrid(base), PartitionGrid(base),
		PipelineGrid(base), SpeculationGrid(base),
		KSweepGrid(base), AllocatorsGrid(base),
	}
}

// withLabel returns the points of grid whose i-th label is one of
// values, in grid order: a test's subset of a figure's full grid.
func withLabel(grid []GridPoint, i int, values ...string) []GridPoint {
	var sub []GridPoint
	for _, g := range grid {
		if slices.Contains(values, g.Labels[i]) {
			sub = append(sub, g)
		}
	}
	return sub
}

// TestGridSpecsArePinned: every grid at config.Default's windows and
// seed 1 marshals to the bytes it always has. A point's JSON is its job
// ID's preimage, so a builder change that moves one — and with it a
// manifest line or a printed number — fails here; a deliberate one
// re-pins the digest.
func TestGridSpecsArePinned(t *testing.T) {
	base := config.Default()
	base.Seed = 1
	grids := allGrids(base)
	h := sha256.New()
	points := 0
	for _, grid := range grids {
		b, err := json.Marshal(grid)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		points += len(grid)
	}
	if points != 117 {
		t.Errorf("the grids hold %d points, want 117", points)
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), "4a6814ecc25db200e52ed42a812abf2356d0b75f3bab5be6726148b003a0194d"; got != want {
		t.Errorf("grid digest = %s, want %s", got, want)
	}
	id, err := harness.JobID(grids[0][0].job())
	if err != nil {
		t.Fatal(err)
	}
	if want := "4dce135c5edae8baf62cccd4"; id != want {
		t.Errorf("first fig8 job ID = %s, want %s", id, want)
	}
}

// TestFigure8GridParallelDeterminism is the experiments-layer half of
// the harness guarantee: the same grid through 1 and 8 workers yields
// identical snapshots, and a manifest resume splices rather than
// recomputes.
func TestFigure8GridParallelDeterminism(t *testing.T) {
	grid := withLabel(Figure8Grid(tinyBase()), 2, "0.02", "0.05", "saturation")
	run := func(opt harness.Options) []stats.Snapshot {
		t.Helper()
		snaps, err := RunGrid(context.Background(), grid, opt)
		if err != nil {
			t.Fatal(err)
		}
		return snaps
	}
	serial, parallel := run(harness.Options{Parallel: 1}), run(harness.Options{Parallel: 8})
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel snapshots differ from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}

	// A rerun against a populated manifest must return the same
	// snapshots without running a single simulation. Each run opens the
	// file afresh and closes it, as a command's -resume does.
	manifest := filepath.Join(t.TempDir(), "fig8.jsonl")
	runFile := func(opt harness.Options) []stats.Snapshot {
		t.Helper()
		st, err := store.Open(manifest)
		if err != nil {
			t.Fatal(err)
		}
		opt.Store = st
		snaps := run(opt)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return snaps
	}
	runFile(harness.Options{Parallel: 4})
	ran := 0
	resumed := runFile(harness.Options{
		Parallel: 4,
		OnDone: func(r harness.Result) {
			if !r.Cached {
				ran++
			}
		},
	})
	if ran != 0 {
		t.Errorf("resume against a complete manifest re-ran %d jobs", ran)
	}
	if !reflect.DeepEqual(serial, resumed) {
		t.Fatal("resumed snapshots differ from serial snapshots")
	}

	// The same over a shared in-memory store, as vixd holds one: a cold
	// pass simulates every point once, and a replay of the identical grid
	// simulates nothing — the miss count stays at the grid size, every
	// result is served — and returns the serial snapshots.
	st := store.Memory()
	points := int64(len(grid))
	cold := run(harness.Options{Parallel: 4, Store: st})
	if got := st.Stats().Misses; got != points {
		t.Fatalf("cold pass over an empty store simulated %d points, want all %d", got, points)
	}
	var served atomic.Int64
	warm := run(harness.Options{
		Parallel: 4, Store: st,
		OnDone: func(r harness.Result) {
			if r.Cached {
				served.Add(1)
			}
		},
	})
	if got := st.Stats().Misses; got != points {
		t.Errorf("warm replay simulated %d points; every one must be served from the store", got-points)
	}
	if served.Load() != points {
		t.Errorf("warm replay reported %d of %d results as cached", served.Load(), points)
	}
	if !reflect.DeepEqual(serial, cold) || !reflect.DeepEqual(serial, warm) {
		t.Fatalf("store-backed snapshots differ from serial:\nserial: %+v\ncold:   %+v\nwarm:   %+v", serial, cold, warm)
	}
}

// TestGridSeedsAreLabelKeyed: a point's seed must depend on its labels,
// not its position, so inserting a point never re-seeds its neighbours:
// every Figure 8 point runs on the sub-seed its labels derive from the
// root seed, never the root itself, and no two points share one.
func TestGridSeedsAreLabelKeyed(t *testing.T) {
	base := tinyBase()
	seen := map[uint64]string{base.Seed: "the root seed"}
	for _, g := range Figure8Grid(base) {
		name := strings.Join(g.Labels, "/")
		if want := sim.DeriveSeed(base.Seed, g.Labels...); g.Spec.Seed != want {
			t.Errorf("%s runs on seed %d, want %d derived from its labels", name, g.Spec.Seed, want)
		}
		if prev, dup := seen[g.Spec.Seed]; dup {
			t.Errorf("%s runs on the seed of %s", name, prev)
		}
		seen[g.Spec.Seed] = name
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
	base := Figure8Grid(tinyBase())[0]
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
	base := config.Default()
	base.Warmup, base.Measure = 20, 60
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
	for _, grid := range allGrids(base) {
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
