// Package store is the content-addressed, cross-run result cache that
// backs both the experiment harness's resumable manifests and the vixd
// simulation service. Every result is keyed by a sha256 content hash of
// the job's name and spec (computed by the harness), so two requests
// describe the same simulation exactly when their keys collide — and
// because every simulation in this repository is deterministic in its
// spec (vixlint-enforced), a key collision means the cached value IS the
// result, byte for byte. That property turns memoization from an
// approximation into an identity: identical specs from any client,
// across suites, across server restarts, are served from the store
// without simulating.
//
// The on-disk format is the harness's JSONL manifest, unchanged: one
// JSON object per line with id/name/value/telemetry fields, appended
// with O_APPEND in a single Write per entry so concurrent writers —
// other Store instances in this process or other processes sharing the
// file — interleave whole lines rather than tearing them. A kill can
// tear at most the final line, which Open discards and terminates so the
// next append starts a line of its own; duplicate IDs are
// legal (two writers may race to complete the same spec) and resolve
// last-wins, which is safe because determinism makes every value for an
// ID identical.
//
// In-process, a Store adds what the file format cannot: single-flight
// de-duplication. Do coalesces N concurrent requests for one ID into a
// single computation; the leader simulates, appends, and publishes, and
// the other N-1 callers block until the entry lands and then share it.
// Hit, miss, and in-flight-dedup counters make the cache's behaviour
// observable (vixd's /statsz, the ledger's vixd_warm workload, and the
// exactness tests all read them).
//
// A Store never spawns goroutines; it only synchronises callers that
// are already concurrent (the harness worker pool, vixd's runners).
// Concurrency stays confined to the packages vixlint allowlists.
package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Telemetry is the wall-clock cost of one job, recorded alongside its
// result. It annotates throughput (the -v stderr logs, vixd result
// metadata) but never enters a merged artifact: CSVs and tables stay
// byte-identical across machines and worker counts. For a cached result
// it is the cost recorded when the job originally ran.
type Telemetry struct {
	// WallNanos is the job's elapsed wall time in nanoseconds.
	WallNanos int64 `json:"wall_ns"`
	// Cycles is the number of simulated cycles.
	Cycles int64 `json:"cycles,omitempty"`
	// CyclesPerSec is the simulation rate, the harness's headline
	// throughput metric.
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
}

// Duration returns the wall time as a time.Duration.
func (t Telemetry) Duration() time.Duration { return time.Duration(t.WallNanos) }

// Entry is one cached result: a single JSON line of the store file.
type Entry struct {
	// ID is the content hash of the job's name and spec — the cache key.
	ID string `json:"id"`
	// Name is the human-readable job name, e.g. "spec/if:2/0.05".
	Name string `json:"name"`
	// Value is the JSON encoding of the job's result, spelled as
	// json.Marshal writes it: the harness stores what json.Marshal
	// returned, and Open respells every loaded value into that form.
	Value json.RawMessage `json:"value"`
	// Telemetry records the cost of the run that produced Value.
	Telemetry Telemetry `json:"telemetry"`
}

// Outcome reports how Do satisfied a request.
type Outcome int

const (
	// Computed: this caller ran the computation (a cache miss).
	Computed Outcome = iota
	// Hit: the entry was already in the store.
	Hit
	// Shared: another in-flight caller was already computing this ID;
	// this caller waited and shares the leader's result.
	Shared
)

// Stats is a snapshot of the store's accounting.
type Stats struct {
	// Entries is the number of distinct IDs currently held.
	Entries int `json:"entries"`
	// Hits counts requests served from an already-stored entry.
	Hits int64 `json:"hits"`
	// Misses counts requests that ran the computation.
	Misses int64 `json:"misses"`
	// InflightDedup counts requests that waited on another caller's
	// in-flight computation instead of starting their own.
	InflightDedup int64 `json:"inflight_dedup"`
}

// Served returns the number of requests answered without computing.
func (s Stats) Served() int64 { return s.Hits + s.InflightDedup }

// flight is one in-progress computation; waiters block on done.
type flight struct {
	done chan struct{}
	e    Entry
	err  error
}

// Store is a content-addressed result cache safe for concurrent readers
// and writers. The zero value is not usable; construct with Open or
// Memory.
type Store struct {
	mu      sync.Mutex
	f       *os.File // nil for a memory-only store
	path    string
	entries map[string]Entry
	flights map[string]*flight

	hits, misses, dedups atomic.Int64
}

// Memory returns a store with no backing file: a pure in-process
// memoization table. Useful for tests and for serving without persistence.
func Memory() *Store {
	return &Store{
		entries: make(map[string]Entry),
		flights: make(map[string]*flight),
	}
}

// Open loads the store file at path — tolerating a torn final line from
// a killed writer — and opens it for appending. A missing file is an
// empty store, so first runs and resumed runs share one code path. An
// empty path returns a memory-only store.
func Open(path string) (*Store, error) {
	s := Memory()
	if path == "" {
		return s, nil
	}
	s.path = path
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: reading %s: %w", path, err)
	}
	torn := len(data) > 0 && data[len(data)-1] != '\n'
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		var e Entry
		// A line that does not parse, or parses without an ID, is a torn
		// tail write from an interrupted run: ignore it and the job will
		// simply be re-run.
		if err := json.Unmarshal(line, &e); err != nil || e.ID == "" {
			continue
		}
		// Respell the value as json.Marshal writes one (compact,
		// HTML-escaped), the form every value the store serves is in, so
		// a hand-edited or foreign line serves the bytes a computed one
		// would. Marshalling a RawMessage that has just parsed cannot fail.
		if len(e.Value) > 0 {
			e.Value, _ = json.Marshal(e.Value)
		}
		s.entries[e.ID] = e
	}
	s.f, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	// Terminate a torn final line, or the next Put would append onto the
	// fragment and be lost with it on the next Open.
	if torn {
		if _, err := s.f.Write([]byte{'\n'}); err != nil {
			s.f.Close()
			return nil, fmt.Errorf("store: terminating the torn tail of %s: %w", path, err)
		}
	}
	return s, nil
}

// Path returns the backing file path ("" for a memory-only store).
func (s *Store) Path() string { return s.path }

// Len returns the number of distinct entries held.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats snapshots the store's accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	n := len(s.entries)
	s.mu.Unlock()
	return Stats{
		Entries:       n,
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		InflightDedup: s.dedups.Load(),
	}
}

// Lookup returns the stored entry for an ID, if any. It does not touch
// the hit/miss counters; accounting belongs to the request path, Do and
// Get.
func (s *Store) Lookup(id string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	return e, ok
}

// Get is Lookup on the request path: a stored entry is returned and
// counted as one hit, as Do counts its hit; a missing one counts
// nothing, so the caller's later Do counts the miss or share itself.
func (s *Store) Get(id string) (Entry, bool) {
	e, ok := s.Lookup(id)
	if ok {
		s.hits.Add(1)
	}
	return e, ok
}

// Put stores one completed entry, appending it to the backing file (one
// O_APPEND Write of one full line, so concurrent writers — including
// other processes sharing the file — interleave whole lines and a kill
// can tear at most the final one).
func (s *Store) Put(e Entry) error {
	if e.ID == "" {
		return fmt.Errorf("store: entry %q has no ID", e.Name)
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("store: encoding entry %s: %w", e.Name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		if _, err := s.f.Write(append(line, '\n')); err != nil {
			return fmt.Errorf("store: writing entry %s: %w", e.Name, err)
		}
	}
	s.entries[e.ID] = e
	return nil
}

// Do returns the entry for id, computing it at most once across all
// concurrent callers: a stored entry is returned immediately (Hit); if
// another caller is already computing id, this caller blocks until that
// flight lands and shares its result (Shared); otherwise compute runs on
// this goroutine and its entry is stored and published (Computed).
//
// compute must return an entry whose ID equals id. Its error is
// propagated to every caller of the flight, and the flight is then
// cleared so a later request retries. A waiter whose ctx ends before the
// flight lands returns ctx's error without disturbing the computation.
func (s *Store) Do(ctx context.Context, id string, compute func() (Entry, error)) (Entry, Outcome, error) {
	s.mu.Lock()
	if e, ok := s.entries[id]; ok {
		s.mu.Unlock()
		s.hits.Add(1)
		return e, Hit, nil
	}
	if fl, ok := s.flights[id]; ok {
		s.mu.Unlock()
		s.dedups.Add(1)
		select {
		case <-fl.done:
			return fl.e, Shared, fl.err
		case <-ctx.Done():
			return Entry{}, Shared, fmt.Errorf("store: waiting for in-flight %s: %w", id, ctx.Err())
		}
	}
	fl := &flight{done: make(chan struct{})}
	s.flights[id] = fl
	s.mu.Unlock()
	s.misses.Add(1)

	// Publish the flight on every exit — including a compute panic, so
	// waiters see an error instead of blocking forever — and clear it so
	// the ID can be retried after a failure.
	finished := false
	defer func() {
		if !finished {
			fl.err = fmt.Errorf("store: computing %s panicked", id)
		}
		s.mu.Lock()
		delete(s.flights, id)
		s.mu.Unlock()
		close(fl.done)
	}()

	e, err := compute()
	if err == nil && e.ID != id {
		err = fmt.Errorf("store: computed entry %q under key %q", e.ID, id)
	}
	if err == nil {
		err = s.Put(e)
	}
	fl.e, fl.err = e, err
	finished = true
	if err != nil {
		return Entry{}, Computed, err
	}
	return e, Computed, nil
}

// Close releases the backing file handle. The in-memory table remains
// readable; further Puts affect only memory.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	f := s.f
	s.f = nil
	return f.Close()
}
