// Package harness turns a grid of independent experiment points into a
// deterministic parallel job engine. Every evaluation in EXPERIMENTS.md
// is a fan-out of self-contained simulations — one (scheme, rate,
// topology) point per run — and the harness is the one place in the
// repository where those runs are allowed to execute concurrently.
//
// The contract that keeps parallelism compatible with the simulator's
// reproducibility story has three parts:
//
//   - Self-contained jobs. A Job owns everything its simulation needs,
//     including its RNG seed (derived up front via sim.DeriveSeed from
//     the job's labels, never from run order). Jobs share no mutable
//     state, so scheduling cannot reach results.
//
//   - Canonical merge. Run returns results in job order regardless of
//     worker count or completion order, so an artifact rendered from the
//     returned slice is byte-identical for -parallel=1 and -parallel=N.
//
//   - Content-addressed result store. With Options.Manifest (a file
//     path) or Options.Store (a shared *store.Store) set, every
//     completed job's result is appended to the store keyed by a content
//     hash of the job's name and spec (JobID). A rerun skips completed
//     points and splices their cached values into the merged output, so
//     an interrupted grid finishes exactly where an uninterrupted one
//     would have — and because the store is content-addressed rather
//     than run-scoped, any later run that derives the same IDs is served
//     without simulating. The ID covers the job name, and every tool
//     prefixes its own ("sweep/…", "fig8/…", "vixd/…"): tools may share
//     one store file without colliding, but never serve each other's
//     points. Concurrent Runs sharing one Store single-flight: N
//     in-flight requests for one ID simulate once.
//
// Jobs execute on a sim.Pool, the shared bounded worker pool that also
// powers the network's sharded parallel tick. When the effective worker
// count is one — an explicit -parallel=1, a one-job grid, or a
// single-CPU host — the pool runs every job inline on the calling
// goroutine, so serial grid runs pay no channel or goroutine overhead
// over the old one-point-at-a-time loops. The harness spawns nothing
// itself: vixlint allows go statements only in internal/sim and
// internal/service; simulation packages stay goroutine-free.
package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"vix/internal/sim"
	"vix/internal/store"
)

// Job is one self-contained experiment point of a grid.
type Job struct {
	// Name identifies the job in telemetry and error messages, e.g.
	// "sweep/if:2/0.05". Names need not be unique; IDs are.
	Name string

	// Spec is the canonical, JSON-serialisable description of the point.
	// Its encoding is content-hashed into the job's manifest ID, so it
	// must capture everything that can change the result — allocator,
	// k, rate, topology, simulation windows, and the derived sub-seed.
	Spec any

	// Cycles is the number of simulated cycles the job will run
	// (warmup + measurement), used for cycles/sec telemetry. Zero is
	// fine for non-simulation jobs.
	Cycles int64

	// Run executes the point and returns a JSON-serialisable result.
	// It must be deterministic in Spec alone: no shared state, no
	// wall-clock reads, no dependence on scheduling. The context is
	// cancelled when the run is being abandoned; long jobs may honour
	// it, short ones may ignore it.
	Run func(ctx context.Context) (any, error)
}

// Result is one job's outcome, in the canonical (input) order.
type Result struct {
	// Index is the job's position in the input slice.
	Index int
	// ID is the content hash of the job's name and spec — its store key.
	ID string
	// Name echoes Job.Name.
	Name string
	// Value is the JSON encoding of Run's return value. It is nil when
	// the run failed or was interrupted before the job started.
	Value json.RawMessage
	// Cached reports that Value was served from the result store — an
	// entry recorded by an earlier run, or another in-flight request for
	// the same spec — instead of being simulated by this job.
	Cached bool
	// Telemetry records the job's wall-clock cost. For cached results
	// it is the cost recorded when the job originally ran.
	Telemetry Telemetry
}

// Options configure a Run.
type Options struct {
	// Parallel is the worker count. Values <= 0 mean GOMAXPROCS.
	Parallel int

	// Manifest, when non-empty, is the path of the JSONL result store.
	// Jobs whose IDs appear in it are served from it instead of
	// simulating; newly completed jobs are appended as they finish, so
	// an interrupted run resumes and a later run of the same tool over
	// the same points reuses the entries (another tool pointed at the
	// same file names its jobs differently, so it neither collides with
	// nor reuses them).
	Manifest string

	// Store, when non-nil, is an already-open result store shared with
	// other Runs (the vixd service holds one store across every suite).
	// It takes precedence over Manifest and is not closed by Run.
	// Concurrent Runs sharing a Store single-flight identical specs.
	Store *store.Store

	// OnDone, when non-nil, observes every result as it completes
	// (cached results are reported too, as their jobs are claimed). It
	// may be invoked concurrently from worker goroutines and must not
	// block for long; completion order is scheduling-dependent and must
	// never be used to build artifacts.
	OnDone func(Result)
}

// Decode unmarshals a result's value into T.
func Decode[T any](r Result) (T, error) {
	var v T
	if r.Value == nil {
		return v, fmt.Errorf("harness: job %s has no recorded value", r.Name)
	}
	if err := json.Unmarshal(r.Value, &v); err != nil {
		return v, fmt.Errorf("harness: decoding job %s: %w", r.Name, err)
	}
	return v, nil
}

// DecodeAll unmarshals every result's value, preserving order.
func DecodeAll[T any](rs []Result) ([]T, error) {
	out := make([]T, len(rs))
	for i, r := range rs {
		v, err := Decode[T](r)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Run executes the grid and returns results in job order. The returned
// slice always has len(jobs) entries; on error, entries whose jobs never
// ran have a nil Value. Completed jobs are appended to the result store
// (if configured) even when the run as a whole fails or is cancelled, so
// a rerun resumes rather than restarts.
func Run(ctx context.Context, jobs []Job, opt Options) ([]Result, error) {
	ids, err := jobIDs(jobs)
	if err != nil {
		return nil, err
	}
	// Every run executes against a store: the caller's shared one, the
	// manifest file, or — with neither configured — a throwaway in-memory
	// table, so the job path is identical in all three modes.
	st := opt.Store
	if st == nil {
		st, err = store.Open(opt.Manifest)
		if err != nil {
			return nil, err
		}
		defer st.Close()
	}

	results := make([]Result, len(jobs))
	for i := range jobs {
		results[i] = Result{Index: i, ID: ids[i], Name: jobs[i].Name}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu      sync.Mutex
		jobErrs []error
	)
	fail := func(err error) {
		mu.Lock()
		jobErrs = append(jobErrs, err)
		mu.Unlock()
		cancel() // fail fast: stop handing out new jobs
	}

	workers := opt.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}

	// The pool hands out job indices. With one effective worker — an
	// explicit -parallel=1, a one-job grid, or a single-CPU host —
	// Pool.Do executes every job inline on this goroutine: no feed
	// channel, no worker spawn, no handoff overhead, so a serial grid run
	// costs what the old one-point-at-a-time loop cost. Each job resolves
	// through the store's single-flight gate: a stored entry (this run's
	// manifest, an earlier run, another Run sharing the Store) is served
	// without simulating, an identical ID already in flight anywhere in
	// the process is waited on and shared, and only a genuine miss
	// simulates — then appends its entry for every future run.
	//
	// What the job literal shares across workers, and why that is safe
	// (nothing static checks this; `make race` over this package's and
	// internal/experiments' Parallel > 1 tests does):
	//   - results: results[i] is job i's own slot, and Pool.Do hands out
	//     each index exactly once.
	//   - st: store.Store guards its entries, flights and file with its
	//     own mutex and appends whole lines; store order is not part of
	//     the results.
	//   - jobErrs: appended only under mu in fail; the order errors are
	//     collected in is not part of the results.
	pool := sim.NewPool(workers)
	defer pool.Close()
	pool.Do(len(jobs), func(i int) {
		if runCtx.Err() != nil {
			return
		}
		e, outcome, err := st.Do(runCtx, ids[i], func() (store.Entry, error) {
			res, err := runJob(runCtx, jobs[i], results[i])
			if err != nil {
				return store.Entry{}, err
			}
			return store.Entry{ID: res.ID, Name: res.Name, Value: res.Value, Telemetry: res.Telemetry}, nil
		})
		if err != nil {
			fail(err)
			return
		}
		results[i].Value = e.Value
		results[i].Telemetry = e.Telemetry
		results[i].Cached = outcome != store.Computed
		if opt.OnDone != nil {
			opt.OnDone(results[i])
		}
	})

	if len(jobErrs) > 0 {
		return results, errors.Join(jobErrs...)
	}
	if err := ctx.Err(); err != nil {
		return results, fmt.Errorf("harness: run interrupted: %w", err)
	}
	return results, nil
}

// runJob executes one job and encodes its value and telemetry. A panic
// in Run is that job's error, not the process's: the recovery sits below
// store.Do, so the single-flight entry is released, nothing is stored,
// and the ID can be retried.
func runJob(ctx context.Context, job Job, res Result) (_ Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("harness: job %s: panic: %v", job.Name, p)
		}
	}()
	start := wallClock()
	v, err := job.Run(ctx)
	if err != nil {
		return res, fmt.Errorf("harness: job %s: %w", job.Name, err)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return res, fmt.Errorf("harness: job %s: result not serialisable: %w", job.Name, err)
	}
	res.Value = raw
	res.Telemetry = newTelemetry(start, job.Cycles)
	return res, nil
}

// jobIDs hashes every job's spec, rejecting grids with duplicate points:
// two jobs with the same ID would alias one manifest entry and silently
// drop half the work on resume.
func jobIDs(jobs []Job) ([]string, error) {
	ids := make([]string, len(jobs))
	seen := make(map[string]int, len(jobs))
	for i, job := range jobs {
		id, err := JobID(job)
		if err != nil {
			return nil, err
		}
		if j, dup := seen[id]; dup {
			return nil, fmt.Errorf("harness: jobs %d (%s) and %d (%s) have identical specs; every grid point must be unique",
				j, jobs[j].Name, i, job.Name)
		}
		seen[id] = i
		ids[i] = id
	}
	return ids, nil
}
