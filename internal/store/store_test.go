package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func entry(id string, v int) Entry {
	return Entry{ID: id, Name: "test/" + id, Value: json.RawMessage(fmt.Sprintf(`{"v":%d}`, v))}
}

// TestPersistenceAcrossReopen pins the core cross-run property: entries
// put by one Store are served by a fresh Store on the same path.
func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(entry(fmt.Sprintf("id%d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 5 {
		t.Fatalf("reopened store holds %d entries, want 5", r.Len())
	}
	e, ok := r.Lookup("id3")
	if !ok {
		t.Fatal("id3 missing after reopen")
	}
	if string(e.Value) != `{"v":3}` {
		t.Fatalf("id3 value = %s", e.Value)
	}
}

// TestTornTailDiscarded: a kill mid-append tears at most the final line,
// which Open must discard while keeping every whole line.
func TestTornTailDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(entry(fmt.Sprintf("id%d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 2 {
		t.Fatalf("store with torn tail holds %d entries, want 2", r.Len())
	}
	if _, ok := r.Lookup("id2"); ok {
		t.Fatal("torn entry id2 survived")
	}
}

// TestAppendAfterTornTail: the first entry put after a torn tail must
// start a line of its own, or it is appended onto the fragment and lost
// with it on the next Open.
func TestAppendAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	a, err := json.Marshal(entry("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(a, "\n"+`{"id":"b","na`...), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(entry("c", 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for id, want := range map[string]bool{"a": true, "b": false, "c": true} {
		if _, ok := r.Lookup(id); ok != want {
			t.Errorf("after reopen, Lookup(%q) found = %v, want %v", id, ok, want)
		}
	}
}

// TestDuplicateIDsResolveLastWins: two writers may race to complete the
// same spec; the loader must accept the file and keep one entry.
func TestDuplicateIDsResolveLastWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(entry("dup", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(entry("dup", 2)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 1 {
		t.Fatalf("store holds %d entries, want 1", r.Len())
	}
	e, _ := r.Lookup("dup")
	if string(e.Value) != `{"v":2}` {
		t.Fatalf("duplicate did not resolve last-wins: %s", e.Value)
	}
}

// TestDoSingleFlight is the in-flight dedup contract: N concurrent
// requests for one ID run the computation exactly once, everyone gets
// the same entry, and the counters record 1 miss and N-1 dedups.
func TestDoSingleFlight(t *testing.T) {
	s := Memory()
	const waiters = 8
	release := make(chan struct{})
	started := make(chan struct{})
	var computes int
	var mu sync.Mutex

	var wg sync.WaitGroup
	results := make([]Entry, waiters)
	outcomes := make([]Outcome, waiters)
	// Leader: blocks in compute until released.
	wg.Add(1)
	go func() {
		defer wg.Done()
		e, o, err := s.Do(context.Background(), "job", func() (Entry, error) {
			close(started)
			<-release
			mu.Lock()
			computes++
			mu.Unlock()
			return entry("job", 42), nil
		})
		if err != nil {
			t.Error(err)
		}
		results[0], outcomes[0] = e, o
	}()
	<-started
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, o, err := s.Do(context.Background(), "job", func() (Entry, error) {
				mu.Lock()
				computes++
				mu.Unlock()
				return entry("job", 42), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], outcomes[i] = e, o
		}(i)
	}
	// Give the waiters a chance to park on the flight, then release the
	// leader. (A waiter that arrives after the flight lands is a Hit —
	// equally correct, just not what this test measures — so the dedup
	// assertion below accepts hits too, but at least one path must run.)
	close(release)
	wg.Wait()

	if computes != 1 {
		t.Fatalf("computation ran %d times, want exactly 1", computes)
	}
	for i, e := range results {
		if string(e.Value) != `{"v":42}` {
			t.Fatalf("caller %d got value %s", i, e.Value)
		}
	}
	if outcomes[0] != Computed {
		t.Fatalf("leader outcome = %v, want Computed", outcomes[0])
	}
	st := s.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	if st.Served() != waiters-1 {
		t.Fatalf("served (hits+dedup) = %d, want %d", st.Served(), waiters-1)
	}
}

// TestDoHit: a stored entry is returned without running compute.
func TestDoHit(t *testing.T) {
	s := Memory()
	if err := s.Put(entry("job", 7)); err != nil {
		t.Fatal(err)
	}
	e, o, err := s.Do(context.Background(), "job", func() (Entry, error) {
		t.Fatal("compute ran despite a stored entry")
		return Entry{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if o != Hit {
		t.Fatalf("outcome = %v, want Hit", o)
	}
	if string(e.Value) != `{"v":7}` {
		t.Fatalf("value = %s", e.Value)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 1 hit, 0 misses", st)
	}
}

// TestGetCountsHitsOnly: Get counts a stored entry as one hit, the way
// Do's hit counts, and a missing one as nothing; Lookup counts neither.
func TestGetCountsHitsOnly(t *testing.T) {
	s := Memory()
	if err := s.Put(entry("job", 7)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lookup("job"); !ok {
		t.Fatal("Lookup missed a stored entry")
	}
	if _, ok := s.Lookup("nosuch"); ok {
		t.Fatal("Lookup found an entry never stored")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 || st.InflightDedup != 0 {
		t.Fatalf("after two Lookups stats = %+v, want nothing counted", st)
	}
	e, ok := s.Get("job")
	if !ok || string(e.Value) != `{"v":7}` {
		t.Fatalf("Get = %+v, %v; want the stored entry", e, ok)
	}
	if _, ok := s.Get("nosuch"); ok {
		t.Fatal("Get found an entry never stored")
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 0 || st.InflightDedup != 0 {
		t.Fatalf("after a Get hit and a Get miss stats = %+v, want 1 hit and nothing else", st)
	}
}

// TestDoErrorPropagatesAndClears: a failed computation reaches every
// waiter, and a later request retries instead of caching the failure.
func TestDoErrorPropagatesAndClears(t *testing.T) {
	s := Memory()
	boom := errors.New("boom")
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	var leaderErr, waiterErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, leaderErr = s.Do(context.Background(), "job", func() (Entry, error) {
			close(started)
			<-release
			return Entry{}, boom
		})
	}()
	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, waiterErr = s.Do(context.Background(), "job", func() (Entry, error) {
			<-release
			return Entry{}, boom
		})
	}()
	close(release)
	wg.Wait()
	if !errors.Is(leaderErr, boom) {
		t.Fatalf("leader error = %v, want boom", leaderErr)
	}
	// The waiter either shared the failed flight (boom) or, arriving
	// after it cleared, retried and failed itself (also boom).
	if !errors.Is(waiterErr, boom) {
		t.Fatalf("waiter error = %v, want boom", waiterErr)
	}
	// The failure is not cached: the next request runs compute again.
	e, o, err := s.Do(context.Background(), "job", func() (Entry, error) {
		return entry("job", 1), nil
	})
	if err != nil || o != Computed || string(e.Value) != `{"v":1}` {
		t.Fatalf("retry after failure: e=%s o=%v err=%v", e.Value, o, err)
	}
}

// TestDoWaiterHonoursContext: a waiter whose context ends returns
// promptly without disturbing the leader's computation.
func TestDoWaiterHonoursContext(t *testing.T) {
	s := Memory()
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := s.Do(context.Background(), "job", func() (Entry, error) {
			close(started)
			<-release
			return entry("job", 1), nil
		}); err != nil {
			t.Error(err)
		}
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := s.Do(ctx, "job", func() (Entry, error) {
		t.Error("cancelled waiter ran compute")
		return Entry{}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter error = %v, want context.Canceled", err)
	}
	close(release)
	wg.Wait()
	if _, ok := s.Lookup("job"); !ok {
		t.Fatal("leader's entry missing; waiter cancellation disturbed the flight")
	}
}

// TestDoRejectsMismatchedID: compute must return the entry it was asked
// for; anything else would poison the cache under the wrong key.
func TestDoRejectsMismatchedID(t *testing.T) {
	s := Memory()
	_, _, err := s.Do(context.Background(), "want", func() (Entry, error) {
		return entry("other", 1), nil
	})
	if err == nil || !strings.Contains(err.Error(), "under key") {
		t.Fatalf("mismatched ID not rejected: %v", err)
	}
	if s.Len() != 0 {
		t.Fatal("mismatched entry was stored")
	}
}

// TestConcurrentWritersInterleaveWholeLines: two Store instances on one
// path (the two-process model) append concurrently; the file must stay
// line-parseable with every entry intact.
func TestConcurrentWritersInterleaveWholeLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	a, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const per = 200
	var wg sync.WaitGroup
	write := func(s *Store, prefix string) {
		defer wg.Done()
		for i := 0; i < per; i++ {
			if err := s.Put(entry(fmt.Sprintf("%s%d", prefix, i), i)); err != nil {
				t.Error(err)
				return
			}
		}
	}
	wg.Add(2)
	go write(a, "a")
	go write(b, "b")
	wg.Wait()
	a.Close()
	b.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte{'\n'}), []byte{'\n'})
	if len(lines) != 2*per {
		t.Fatalf("file has %d lines, want %d", len(lines), 2*per)
	}
	for _, line := range lines {
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("torn line %q: %v", line, err)
		}
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 2*per {
		t.Fatalf("reopened store holds %d entries, want %d", r.Len(), 2*per)
	}
}

// TestMemoryStore: an empty path is a memory-only store; Puts succeed
// and nothing touches the filesystem.
func TestMemoryStore(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if s.Path() != "" {
		t.Fatalf("memory store has path %q", s.Path())
	}
	if err := s.Put(entry("x", 1)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatal("memory store dropped the entry")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPutRejectsEmptyID: an entry without an ID would be unreachable and
// silently discarded on reload.
func TestPutRejectsEmptyID(t *testing.T) {
	s := Memory()
	if err := s.Put(Entry{Name: "anon"}); err == nil {
		t.Fatal("empty-ID entry accepted")
	}
}
