// Package service exposes the simulator as a long-running HTTP API —
// the serving layer behind cmd/vixd. The data model is hive-style:
// clients open a *suite* (POST /suites, optionally with a whole grid of
// inline cases), add *cases* to it (POST /suites/{id}/cases, one
// validated experiment spec each), and stream per-case results as they
// complete (GET /suites/{id}/results, JSONL or SSE) — before the suite
// closes, not after.
//
// Every case executes through internal/harness on the server's shared
// content-addressed result store, which is what makes the service
// tractable under repeated load: the simulator is deterministic
// (vixlint-enforced), so a spec's content hash is an exact identity for
// its result. Identical specs — from any client, across suites, across
// server restarts — are served from the store without simulating (a
// spec already stored is answered at admission and never queues), and
// N identical specs in flight at once simulate exactly once
// (single-flight). Admission is metered per client by a token bucket;
// exhausted clients get 429 with a Retry-After hint rather than a queue
// slot.
//
// Concurrency lives in exactly two places, both fed by plain state
// under the server mutex: a fixed pool of runner goroutines executing
// queued cases, and one watcher channel per suite that streaming
// handlers wait on. Results never depend on scheduling — a case's value
// is determined by its spec alone, and result streams are emitted in
// case order, so two clients posting the same grid read byte-identical
// streams regardless of runner interleaving. The package is on
// vixlint's concurrency allowlist for these goroutines; it contains no
// wall-clock reads (the quota clock is injected by cmd/vixd).
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"runtime"
	"sync"

	"vix/internal/harness"
	"vix/internal/store"
)

// Config configures a Server.
type Config struct {
	// StorePath is the JSONL result-store file shared by every suite.
	// Empty means an in-memory store (results do not survive restarts).
	StorePath string

	// Runners is the number of cases executing concurrently. Values
	// <= 0 mean GOMAXPROCS.
	Runners int

	// Workers is retired: every case runs its simulation on its runner's
	// goroutine. New accepts 0 or 1 and refuses anything else. The field
	// is kept only because bench/vixd.go, which is frozen outside
	// benchmark PRs, sets it to 1; the next benchmark PR deletes that use
	// and then this field.
	Workers int

	// QuotaRate is the per-client admission rate in cases per second;
	// QuotaBurst is the bucket capacity (defaults to QuotaRate when
	// zero). A zero QuotaRate disables quotas.
	QuotaRate  float64
	QuotaBurst float64

	// Now returns the current time in nanoseconds for quota refill. The
	// service itself never reads the wall clock — cmd/vixd injects the
	// real one, tests inject fakes. Required when QuotaRate > 0.
	Now func() int64

	// Log receives operational messages. Nil means silent.
	Log *log.Logger
}

// Server is the vixd service: suite registry, case queue, runner pool,
// quotas, and the shared result store behind one http.Handler.
type Server struct {
	store  *store.Store
	quotas *quotas
	specs  specTable
	log    *log.Logger

	mu        sync.Mutex
	cond      *sync.Cond // signals runners: queue grew or server closing
	queue     []queued
	suites    map[string]*suite
	order     []*suite // creation order, for deterministic accounting
	cases     int      // cases ever admitted into a suite, for /statsz
	nextSuite int
	closing   bool
	wg        sync.WaitGroup // runner goroutines

	handler http.Handler
}

// New starts a server: opens the result store and launches the runner
// pool. The caller must Close it.
func New(cfg Config) (*Server, error) {
	if math.IsNaN(cfg.QuotaRate) || math.IsNaN(cfg.QuotaBurst) {
		return nil, fmt.Errorf("service: QuotaRate and QuotaBurst must be numbers, got %v and %v", cfg.QuotaRate, cfg.QuotaBurst)
	}
	if cfg.QuotaRate > 0 && cfg.Now == nil {
		return nil, fmt.Errorf("service: Config.Now is required when QuotaRate > 0 (the service never reads the wall clock itself)")
	}
	if cfg.Workers != 0 && cfg.Workers != 1 {
		return nil, fmt.Errorf("service: Config.Workers is retired (every case ticks serially); want 0 or 1, got %d", cfg.Workers)
	}
	st, err := store.Open(cfg.StorePath)
	if err != nil {
		return nil, err
	}
	runners := cfg.Runners
	if runners <= 0 {
		runners = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		store:  st,
		quotas: newQuotas(cfg.QuotaRate, cfg.QuotaBurst, cfg.Now),
		log:    cfg.Log,
		suites: make(map[string]*suite),
	}
	s.cond = sync.NewCond(&s.mu)
	s.handler = s.routes()
	for i := 0; i < runners; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	s.logf("serving with %d runners, store %q (%d entries)", runners, st.Path(), st.Len())
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Close drains and stops the server: queued cases run to completion,
// runners exit, and the store is closed. New
// case submissions racing Close are either executed before Close
// returns or rejected with 503.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closing = true
	s.cond.Broadcast()
	// Wake every results streamer so open streams observe the shutdown
	// instead of waiting on suites that will never close.
	for _, su := range s.order {
		su.mu.Lock()
		su.bumpLocked()
		su.mu.Unlock()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	n := len(s.suites)
	s.mu.Unlock()
	s.logf("drained: %d suites, store %d entries", n, s.store.Len())
	return s.store.Close()
}

// StoreStats exposes the result store's hit/miss/dedup accounting
// (also served as /statsz).
func (s *Server) StoreStats() store.Stats { return s.store.Stats() }

// logf writes one operational log line if a logger is configured.
func (s *Server) logf(format string, args ...any) {
	if s.log != nil {
		s.log.Printf(format, args...)
	}
}

// errShuttingDown refuses suites and cases posted to a draining server.
var errShuttingDown = errors.New("service: server is shutting down")

// enqueue admits cases into su and returns the index of the first. A
// case whose spec is stored is finished at admission; only the rest go
// on the run queue, with their specs. A draining server serves nothing:
// it admits the cases as failed and returns errShuttingDown. The cases
// are counted either way, since su keeps them. Holding s.mu across the
// suite's admission makes the closing check and the serving one step.
func (s *Server) enqueue(su *suite, specs []caseSpec, closeAfter bool) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var refused error
	if s.closing {
		refused = errShuttingDown
	}
	first, misses, err := su.addCases(specs, closeAfter, s.store, refused)
	if err != nil {
		return 0, err
	}
	s.cases += len(specs)
	if refused != nil {
		return 0, refused
	}
	for _, i := range misses {
		// A copy: a spec's text may lie in the request body it came in.
		text := bytes.Clone(specs[i].text)
		s.queue = append(s.queue, queued{su: su, index: first + i, info: specs[i].info, text: text})
	}
	if len(misses) > 0 {
		s.cond.Broadcast()
	}
	return first, nil
}

// runner is one worker goroutine: it pops queued cases and executes
// them until the server is closing and the queue is empty, so a drain
// finishes all admitted work.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closing {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		q := s.queue[0]
		s.queue[0] = queued{} // the backing array outlives the pop; do not pin the case
		s.queue = s.queue[1:]
		s.mu.Unlock()
		s.runCase(q)
	}
}

// runCase executes one case through the harness over the shared store,
// by the store ID admission interned. Identical specs already stored are
// served without simulating or decoding; identical specs in flight are
// waited on and shared (single-flight).
func (s *Server) runCase(q queued) {
	q.su.setRunning(q.index)
	r, err := harness.RunJob(context.Background(), s.store, q.info.storeID, q.job())
	if err != nil {
		s.logf("%s/%s (%s): failed: %v", q.su.id, caseID(q.index), q.info.label, err)
		q.su.setFailed(q.index, err)
		return
	}
	how := "simulated"
	if r.Cached {
		how = "served from store"
	}
	s.logf("%s/%s (%s): %s", q.su.id, caseID(q.index), q.info.label, how)
	q.info.setResult(r.Value, r.Telemetry.WallNanos)
	q.su.setDone(q.index, r.Cached)
}
