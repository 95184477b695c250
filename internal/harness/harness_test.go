package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vix/internal/sim"
	"vix/internal/store"
)

// gridSpec is the test stand-in for an experiment point spec.
type gridSpec struct {
	Study string `json:"study"`
	Point int    `json:"point"`
	Seed  uint64 `json:"seed"`
}

// fakeGrid builds n deterministic jobs whose results depend only on
// their spec (a short pseudo-random walk from the derived seed), just
// like a real simulation point.
func fakeGrid(n int) []Job {
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		spec := gridSpec{Study: "test", Point: i, Seed: sim.DeriveSeed(99, "test", fmt.Sprint(i))}
		jobs[i] = Job{
			Name:   fmt.Sprintf("test/%d", i),
			Spec:   spec,
			Cycles: 1000,
			Run: func(context.Context) (any, error) {
				r := sim.NewRNG(spec.Seed)
				sum := uint64(0)
				for k := 0; k < 1000; k++ {
					sum += r.Uint64() % 1000
				}
				return map[string]uint64{"point": uint64(spec.Point), "sum": sum}, nil
			},
		}
	}
	return jobs
}

// render flattens results into the byte artifact a CLI would emit.
func render(t *testing.T, rs []Result) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, r := range rs {
		b.WriteString(r.Name)
		b.WriteByte('\t')
		b.Write(r.Value)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestParallelMergeIsByteIdentical is the harness's core guarantee: the
// merged artifact for -parallel=1 and -parallel=8 is byte-identical on
// the same grid.
func TestParallelMergeIsByteIdentical(t *testing.T) {
	jobs := fakeGrid(32)
	serial, err := Run(context.Background(), jobs, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), jobs, Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := render(t, serial), render(t, parallel); !bytes.Equal(a, b) {
		t.Fatalf("parallel=8 artifact differs from parallel=1:\nserial:\n%s\nparallel:\n%s", a, b)
	}
	for i, r := range parallel {
		if r.Index != i {
			t.Fatalf("result %d carries index %d; merge order broken", i, r.Index)
		}
		if r.Telemetry.Cycles != 1000 {
			t.Fatalf("result %d telemetry cycles = %d, want 1000", i, r.Telemetry.Cycles)
		}
	}
}

// TestResumeAfterInterruption kills a run mid-grid via context
// cancellation, reruns against the manifest, and asserts the final
// artifact equals an uninterrupted run's.
func TestResumeAfterInterruption(t *testing.T) {
	jobs := fakeGrid(24)
	manifest := filepath.Join(t.TempDir(), "manifest.jsonl")

	// Interrupted first attempt: cancel after 5 completions.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	first, err := Run(ctx, jobs, Options{
		Parallel: 4,
		Manifest: manifest,
		OnDone: func(Result) {
			if done.Add(1) == 5 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("interrupted run reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run error = %v, want context.Canceled", err)
	}
	completed := 0
	for _, r := range first {
		if r.Value != nil {
			completed++
		}
	}
	if completed == 0 || completed == len(jobs) {
		t.Fatalf("interruption completed %d/%d jobs; test needs a partial grid", completed, len(jobs))
	}

	// Resume: same grid, same manifest, no interruption.
	var cached atomic.Int64
	resumed, err := Run(context.Background(), jobs, Options{
		Parallel: 4,
		Manifest: manifest,
		OnDone: func(r Result) {
			if r.Cached {
				cached.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if int(cached.Load()) < completed {
		t.Errorf("resume recomputed checkpointed jobs: %d cached < %d completed", cached.Load(), completed)
	}

	// Reference: an uninterrupted, manifest-free run.
	fresh, err := Run(context.Background(), jobs, Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := render(t, resumed), render(t, fresh); !bytes.Equal(a, b) {
		t.Fatalf("resumed artifact differs from uninterrupted run:\nresumed:\n%s\nfresh:\n%s", a, b)
	}
}

// TestManifestToleratesTornTail simulates a kill that tears the last
// manifest line: the torn entry is discarded and its job re-run.
func TestManifestToleratesTornTail(t *testing.T) {
	jobs := fakeGrid(6)
	path := filepath.Join(t.TempDir(), "manifest.jsonl")
	if _, err := Run(context.Background(), jobs, Options{Parallel: 2, Manifest: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(data, []byte{'\n'}); lines != len(jobs) {
		t.Fatalf("manifest has %d lines, want %d", lines, len(jobs))
	}
	// Tear the final line mid-JSON.
	torn := data[:len(data)-10]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	var cached, ran int
	res, err := Run(context.Background(), jobs, Options{Parallel: 1, Manifest: path, OnDone: func(r Result) {
		if r.Cached {
			cached++
		} else {
			ran++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if cached != len(jobs)-1 || ran != 1 {
		t.Fatalf("after torn tail: %d cached, %d re-run; want %d cached, 1 re-run", cached, ran, len(jobs)-1)
	}
	fresh, err := Run(context.Background(), jobs, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(t, res), render(t, fresh)) {
		t.Fatal("artifact after torn-tail recovery differs from a fresh run")
	}
}

// TestJobIDStability pins that IDs depend on name and spec content, not
// on position, worker count, or map iteration order.
func TestJobIDStability(t *testing.T) {
	a := Job{Name: "x", Spec: gridSpec{Study: "s", Point: 1, Seed: 7}}
	b := Job{Name: "x", Spec: gridSpec{Study: "s", Point: 1, Seed: 7}}
	idA, err := JobID(a)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := JobID(b)
	if err != nil {
		t.Fatal(err)
	}
	if idA != idB {
		t.Fatalf("equal jobs hashed unequally: %s vs %s", idA, idB)
	}
	c := Job{Name: "x", Spec: gridSpec{Study: "s", Point: 2, Seed: 7}}
	idC, err := JobID(c)
	if err != nil {
		t.Fatal(err)
	}
	if idC == idA {
		t.Fatal("distinct specs hashed equally")
	}
	d := Job{Name: "y", Spec: a.Spec}
	idD, err := JobID(d)
	if err != nil {
		t.Fatal(err)
	}
	if idD == idA {
		t.Fatal("distinct names hashed equally")
	}
}

// TestDuplicateSpecsRejected: duplicate grid points would alias one
// manifest entry, so Run refuses them up front.
func TestDuplicateSpecsRejected(t *testing.T) {
	jobs := fakeGrid(3)
	jobs[2] = jobs[0]
	_, err := Run(context.Background(), jobs, Options{Parallel: 1})
	if err == nil || !strings.Contains(err.Error(), "identical specs") {
		t.Fatalf("duplicate specs not rejected: %v", err)
	}
}

// TestJobErrorFailsFast: a failing job surfaces its error, and jobs that
// never started carry no value.
func TestJobErrorFailsFast(t *testing.T) {
	jobs := fakeGrid(8)
	boom := errors.New("boom")
	jobs[3].Run = func(context.Context) (any, error) { return nil, boom }
	res, err := Run(context.Background(), jobs, Options{Parallel: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), jobs[3].Name) {
		t.Fatalf("error %q does not name the failing job", err)
	}
	if res[3].Value != nil {
		t.Fatal("failed job recorded a value")
	}
}

// TestPanickingJobFailsItsCase: a panic in one job's Run is that job's
// error — the process survives, the jobs before it completed and were
// stored, nothing was stored for the panicking one, and its
// single-flight entry is released so a rerun against the same store
// computes it.
func TestPanickingJobFailsItsCase(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	opt := Options{Parallel: 1, Store: st}

	jobs := fakeGrid(4)
	fixed := jobs[2].Run
	jobs[2].Run = func(context.Context) (any, error) { panic("sim: Intn called with non-positive n") }
	res, err := Run(context.Background(), jobs, opt)
	if err == nil || !strings.Contains(err.Error(), "harness: job "+jobs[2].Name+": panic: sim: Intn") {
		t.Fatalf("error = %v, want the panic reported as job %s's error", err, jobs[2].Name)
	}
	if res[0].Value == nil || res[1].Value == nil || res[2].Value != nil {
		t.Fatalf("values before/at the panic = %s, %s, %s; want two results and none", res[0].Value, res[1].Value, res[2].Value)
	}

	jobs[2].Run = fixed
	res, err = Run(context.Background(), jobs, opt)
	if err != nil {
		t.Fatalf("rerun against the same store: %v", err)
	}
	for i, r := range res {
		if r.Value == nil || r.Cached != (i < 2) {
			t.Errorf("rerun job %d: value %s cached %v; want jobs 0-1 served from the store and 2-3 computed", i, r.Value, r.Cached)
		}
	}
}

// TestUnserialisableResultIsAnError, not a corrupt manifest line.
func TestUnserialisableResultIsAnError(t *testing.T) {
	jobs := fakeGrid(2)
	jobs[1].Run = func(context.Context) (any, error) { return func() {}, nil }
	_, err := Run(context.Background(), jobs, Options{Parallel: 1})
	if err == nil || !strings.Contains(err.Error(), "not serialisable") {
		t.Fatalf("unserialisable result not rejected: %v", err)
	}
}

// TestDecodeAll round-trips typed values through the JSON layer.
func TestDecodeAll(t *testing.T) {
	type row struct {
		Point uint64 `json:"point"`
		Sum   uint64 `json:"sum"`
	}
	jobs := fakeGrid(5)
	res, err := Run(context.Background(), jobs, Options{Parallel: 3})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := DecodeAll[row](res)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.Point != uint64(i) {
			t.Fatalf("row %d decoded point %d", i, r.Point)
		}
	}
	if _, err := Decode[row](Result{Name: "missing"}); err == nil {
		t.Fatal("Decode of nil value did not error")
	}
}

// TestOnDoneSeesEveryJobExactlyOnce under concurrency.
func TestOnDoneSeesEveryJobExactlyOnce(t *testing.T) {
	jobs := fakeGrid(20)
	var mu sync.Mutex
	seen := make(map[string]int)
	_, err := Run(context.Background(), jobs, Options{Parallel: 8, OnDone: func(r Result) {
		mu.Lock()
		seen[r.Name]++
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if seen[j.Name] != 1 {
			t.Fatalf("job %s observed %d times", j.Name, seen[j.Name])
		}
	}
}

// TestManifestEntriesAreCanonicalJSON guards the checkpoint format: one
// object per line with id/name/value/telemetry fields.
func TestManifestEntriesAreCanonicalJSON(t *testing.T) {
	jobs := fakeGrid(3)
	path := filepath.Join(t.TempDir(), "m.jsonl")
	if _, err := Run(context.Background(), jobs, Options{Parallel: 1, Manifest: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte{'\n'}), []byte{'\n'}) {
		var e struct {
			ID        string          `json:"id"`
			Name      string          `json:"name"`
			Value     json.RawMessage `json:"value"`
			Telemetry Telemetry       `json:"telemetry"`
		}
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("manifest line %q: %v", line, err)
		}
		if e.ID == "" || e.Name == "" || e.Value == nil {
			t.Fatalf("manifest line missing fields: %q", line)
		}
		if e.Telemetry.Cycles != 1000 || e.Telemetry.WallNanos < 0 {
			t.Fatalf("manifest telemetry implausible: %+v", e.Telemetry)
		}
	}
}

// TestSerialRunExecutesInline pins the single-worker fast path: with
// Parallel=1 every job must run on the calling goroutine with no worker
// goroutines or feed channels in between — the regression that cost a
// serial sweep 4% on a single-CPU host. A job's stack must contain this
// test's frame, and the process goroutine count must not move.
func TestSerialRunExecutesInline(t *testing.T) {
	var stack string
	jobs := fakeGrid(4)
	jobs[2].Run = func(context.Context) (any, error) {
		buf := make([]byte, 1<<16)
		stack = string(buf[:runtime.Stack(buf, false)])
		return map[string]uint64{"point": 2}, nil
	}
	before := runtime.NumGoroutine()
	if _, err := Run(context.Background(), jobs, Options{Parallel: 1}); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine count grew from %d to %d; serial Run must not spawn", before, after)
	}
	if !strings.Contains(stack, "TestSerialRunExecutesInline") {
		t.Errorf("job did not run on the calling goroutine; stack:\n%s", stack)
	}
}

// TestConcurrentRunsShareStoreSingleFlight is the multi-writer contract
// for one shared Store: two harness.Runs executing the same grid
// concurrently must produce byte-identical artifacts while simulating
// each point exactly once — whichever Run reaches a point first computes
// it, and the other is served from the store (a hit) or waits on the
// in-flight computation (a dedup).
func TestConcurrentRunsShareStoreSingleFlight(t *testing.T) {
	jobs := fakeGrid(16)
	st, err := store.Open(filepath.Join(t.TempDir(), "shared.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var wg sync.WaitGroup
	outs := make([][]Result, 2)
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			outs[r], errs[r] = Run(context.Background(), jobs, Options{Parallel: 4, Store: st})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", r, err)
		}
	}
	if a, b := render(t, outs[0]), render(t, outs[1]); !bytes.Equal(a, b) {
		t.Fatalf("concurrent runs diverged:\nA:\n%s\nB:\n%s", a, b)
	}
	stats := st.Stats()
	if stats.Misses != int64(len(jobs)) {
		t.Fatalf("store computed %d points for %d-job grid run twice; single-flight must simulate each exactly once (stats %+v)",
			stats.Misses, len(jobs), stats)
	}
	if got := stats.Served(); got != int64(len(jobs)) {
		t.Fatalf("served %d results from the store, want %d (stats %+v)", got, len(jobs), stats)
	}
	if st.Len() != len(jobs) {
		t.Fatalf("store holds %d entries, want %d", st.Len(), len(jobs))
	}
}

// TestConcurrentRunsSharingOnePath is the two-process model: separate
// Store instances appending to one file concurrently. There is no
// cross-instance single-flight (each may simulate every point), but the
// O_APPEND whole-line discipline must keep the file intact: both runs
// succeed, artifacts are byte-identical, and a fresh Store loads every
// entry from the shared file.
func TestConcurrentRunsSharingOnePath(t *testing.T) {
	jobs := fakeGrid(12)
	path := filepath.Join(t.TempDir(), "shared.jsonl")

	var wg sync.WaitGroup
	outs := make([][]Result, 2)
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			outs[r], errs[r] = Run(context.Background(), jobs, Options{Parallel: 3, Manifest: path})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", r, err)
		}
	}
	if a, b := render(t, outs[0]), render(t, outs[1]); !bytes.Equal(a, b) {
		t.Fatalf("runs sharing one path diverged:\nA:\n%s\nB:\n%s", a, b)
	}

	// Every line in the shared file must be whole (no interleaved tears),
	// and the union must cover the grid.
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != len(jobs) {
		t.Fatalf("shared file resolves to %d entries, want %d", st.Len(), len(jobs))
	}
	for _, r := range outs[0] {
		e, ok := st.Lookup(r.ID)
		if !ok {
			t.Fatalf("job %s missing from shared store", r.Name)
		}
		if !bytes.Equal(e.Value, r.Value) {
			t.Fatalf("job %s: stored value %s differs from result %s", r.Name, e.Value, r.Value)
		}
	}

	// A third run over the same path must be served entirely from the
	// store: zero simulations.
	var ran int
	res, err := Run(context.Background(), jobs, Options{Parallel: 2, Manifest: path, OnDone: func(r Result) {
		if !r.Cached {
			ran++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Fatalf("rerun over a complete store simulated %d points, want 0", ran)
	}
	if !bytes.Equal(render(t, res), render(t, outs[0])) {
		t.Fatal("rerun served from store differs from the original artifact")
	}
}
