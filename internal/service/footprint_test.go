package service

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
)

// footprintGrid is a small grid at tiny windows: two allocators by two
// virtual-input counts by two loads on a 4x4 mesh.
func footprintGrid() []caseRequest {
	var grid []caseRequest
	for _, alloc := range []string{"if", "wavefront"} {
		for _, k := range []int{1, 2} {
			for _, rate := range []float64{0.02, 0.05} {
				grid = append(grid, caseRequest{Spec: json.RawMessage(fmt.Sprintf(
					`{"width": 4, "height": 4, "warmup": 10, "measure": 30, "allocator": %q, "virtual_inputs": %d, "injection_rate": %g}`,
					alloc, k, rate))})
			}
		}
	}
	return grid
}

// runSuite admits cases as one closed suite and waits until every case
// is terminal, failing the test if one is not done.
func runSuite(t *testing.T, s *Server, raw []caseRequest) {
	t.Helper()
	specs, err := s.parseCases(raw)
	if err != nil {
		t.Fatal(err)
	}
	su, err := s.createSuite("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.submit(su, specs, true); err != nil {
		t.Fatal(err)
	}
	for {
		lines, _, done, changed := su.snapshot(0)
		if done {
			for _, ln := range lines {
				if ln.Status != "done" {
					t.Fatalf("%s/%s: %s %s", su.id, ln.Case, ln.Status, ln.Error)
				}
			}
			return
		}
		<-changed
	}
}

// liveHeap is the heap in use after two collections.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFinishedCaseFootprint bounds what a server keeps per finished case.
// A server holds every case it admitted for as long as it runs, so what
// a case retains after it has run is the service's memory growth. A
// replayed case is a 16-byte row in its suite's slice (its spec's
// interned info, state, provenance; ≈ 25 B with the slice's spare
// capacity): store ID, label, value and wall time live once per spec,
// a client name or error message in a side map, and the spec text is
// dropped with its queue entry. A case that kept its own value and wall
// time behind a pointer took ≈ 92 B; one that kept its spec, store ID
// and label took ≈ 460 B.
//
// A new spec costs more, once: its intern entry, its shared result and
// its store entry. The second half bounds that.
func TestFinishedCaseFootprint(t *testing.T) {
	s, err := New(Config{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	grid := footprintGrid()
	runSuite(t, s, grid) // simulate each spec once; later cases are store hits

	var replay []caseRequest
	for len(replay) < 96 {
		replay = append(replay, grid...)
	}
	const suites = 42
	before := liveHeap()
	for i := 0; i < suites; i++ {
		runSuite(t, s, replay)
	}
	after := liveHeap()

	cases := suites * len(replay)
	perCase := (float64(after) - float64(before)) / float64(cases)
	t.Logf("%d replayed cases: heap %d -> %d B, %.0f B per finished case", cases, before, after, perCase)
	if perCase > 32 {
		t.Errorf("a finished case holds %.0f B of heap, want <= 32", perCase)
	}
	if st := s.StoreStats(); st.Misses != int64(len(grid)) {
		t.Errorf("store simulated %d cases, want %d (replays are hits)", st.Misses, len(grid))
	}
	s.specs.mu.Lock()
	n := len(s.specs.byID)
	s.specs.mu.Unlock()
	if n != len(grid) {
		t.Errorf("intern table holds %d entries, want one per distinct spec (%d)", n, len(grid))
	}

	// Distinct specs: each is simulated once and keeps its intern entry,
	// its shared result, its store entry and its one case.
	const distinct = 256
	fresh := make([]caseRequest, distinct)
	for i := range fresh {
		fresh[i] = caseRequest{Spec: json.RawMessage(fmt.Sprintf(
			`{"width": 4, "height": 4, "warmup": 10, "measure": 30, "injection_rate": 0.02, "seed": %d}`, 1000+i))}
	}
	before = liveHeap()
	runSuite(t, s, fresh)
	after = liveHeap()
	perSpec := (float64(after) - float64(before)) / distinct
	t.Logf("%d new specs: heap %d -> %d B, %.0f B per spec", distinct, before, after, perSpec)
	if perSpec > 1024 {
		t.Errorf("a new spec holds %.0f B of heap, want <= 1024", perSpec)
	}
	if st := s.StoreStats(); st.Misses != int64(len(grid)+distinct) {
		t.Errorf("store simulated %d cases, want %d", st.Misses, len(grid)+distinct)
	}
}
