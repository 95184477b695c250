package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"vix/internal/config"
	"vix/internal/harness"
	"vix/internal/store"
)

// Case status values, as they appear in status and result payloads.
const (
	statusQueued  = "queued"
	statusRunning = "running"
	statusDone    = "done"
	statusFailed  = "failed"
)

// suite is one client-created collection of cases. Suite IDs ("s1",
// "s2", ...) and case IDs ("c0", "c1", ... within a suite) are
// deterministic counters, so a scripted client sees stable names.
type suite struct {
	id   string
	name string

	mu     sync.Mutex
	cases  []*testCase
	closed bool
	// changed is closed and replaced on every state transition; results
	// streamers wait on it instead of polling. (A sync.Cond cannot be
	// selected against a request context; a broadcast channel can.)
	changed chan struct{}
}

// newSuite constructs an empty open suite.
func newSuite(id, name string) *suite {
	return &suite{id: id, name: name, changed: make(chan struct{})}
}

// bumpLocked signals every waiter that suite state changed. Callers
// hold su.mu.
func (su *suite) bumpLocked() {
	close(su.changed)
	su.changed = make(chan struct{})
}

// errSuiteClosed is addCases' refusal, wrapped with the suite ID; the
// handler answers it with 409 rather than 503.
var errSuiteClosed = errors.New("is closed")

// addCases appends cases to an open suite, assigning suite-relative IDs,
// and optionally closes it. It returns the new cases or an error if the
// suite is already closed.
func (su *suite) addCases(specs []caseSpec, closeAfter bool) ([]*testCase, error) {
	su.mu.Lock()
	defer su.mu.Unlock()
	if su.closed {
		return nil, fmt.Errorf("service: suite %s %w", su.id, errSuiteClosed)
	}
	added := make([]*testCase, 0, len(specs))
	for _, cs := range specs {
		tc := &testCase{
			suite:   su,
			id:      "c" + strconv.Itoa(len(su.cases)),
			label:   specLabel(cs.Spec),
			name:    cs.Name,
			spec:    cs.Spec,
			storeID: cs.storeID,
			status:  statusQueued,
		}
		if tc.name == "" {
			tc.name = tc.label
		}
		su.cases = append(su.cases, tc)
		added = append(added, tc)
	}
	if closeAfter {
		su.closed = true
	}
	su.bumpLocked()
	return added, nil
}

// close marks the suite closed; further cases are rejected and results
// streams terminate once every case is terminal.
func (su *suite) close() {
	su.mu.Lock()
	defer su.mu.Unlock()
	if !su.closed {
		su.closed = true
		su.bumpLocked()
	}
}

// snapshot returns the stream lines for terminal cases at index >= from,
// the channel to wait on for more, and whether the stream is complete
// (suite closed and every case terminal).
func (su *suite) snapshot(from int) (lines []resultLine, next int, done bool, changed chan struct{}) {
	su.mu.Lock()
	defer su.mu.Unlock()
	next = from
	for next < len(su.cases) && su.cases[next].terminalLocked() {
		lines = append(lines, su.cases[next].lineLocked())
		next++
	}
	done = su.closed && next == len(su.cases)
	return lines, next, done, su.changed
}

// caseSpec is one validated case submission.
type caseSpec struct {
	Name string
	Spec config.Experiment
	// storeID is the spec's content hash, computed at admission so a
	// malformed-for-hashing spec is the client's 400, not a runner
	// failure.
	storeID string
}

// testCase is one case of a suite: a validated spec and its lifecycle
// from queued to done/failed. Fields after status are written by the
// runner under su.mu.
type testCase struct {
	suite   *suite
	id      string // suite-relative: "c0", "c1", ...
	label   string // spec-derived display label, e.g. "vixd/if:2/0.05"
	name    string // client-chosen display name (defaults to label)
	spec    config.Experiment
	storeID string

	status    string
	value     json.RawMessage
	errMsg    string
	cached    bool
	telemetry store.Telemetry
}

// job converts the case into the harness job that executes it. The
// job's name and spec are derived from the experiment alone — never
// from the suite or client — so identical specs from anywhere share one
// store identity.
func (tc *testCase) job(workers int) harness.Job {
	e := tc.spec
	return harness.Job{
		Name:   tc.label,
		Spec:   e,
		Cycles: int64(e.Warmup + e.Measure),
		Run: func(ctx context.Context) (any, error) {
			s, err := e.Run(workers)
			if err != nil {
				return nil, err
			}
			return caseValue{
				AvgLatency:        s.AvgLatency,
				P50Latency:        s.P50Latency,
				P99Latency:        s.P99Latency,
				MaxLatency:        s.MaxLatency,
				AvgHops:           s.AvgHops,
				ThroughputFlits:   s.ThroughputFlits,
				ThroughputPackets: s.ThroughputPackets,
				Fairness:          fmt.Sprintf("%.3f", s.FairnessRatio),
				PacketsInjected:   s.PacketsInjected,
				PacketsEjected:    s.PacketsEjected,
			}, nil
		},
	}
}

// caseValue is the measured result of one case. Fairness is formatted
// (not a float) because an idle source makes the max/min ratio +Inf,
// which JSON cannot carry.
type caseValue struct {
	AvgLatency        float64 `json:"avg_latency"`
	P50Latency        int64   `json:"p50_latency"`
	P99Latency        int64   `json:"p99_latency"`
	MaxLatency        int64   `json:"max_latency"`
	AvgHops           float64 `json:"avg_hops"`
	ThroughputFlits   float64 `json:"throughput_flits"`
	ThroughputPackets float64 `json:"throughput_packets"`
	Fairness          string  `json:"fairness"`
	PacketsInjected   int64   `json:"packets_injected"`
	PacketsEjected    int64   `json:"packets_ejected"`
}

// specLabel renders the spec's display label. It is derived from the
// spec alone so it is stable across suites and clients.
func specLabel(e config.Experiment) string {
	alloc := e.Allocator
	if alloc == "" {
		alloc = "if"
	}
	k := e.VirtualInputs
	if k == 0 {
		k = 1
	}
	return fmt.Sprintf("vixd/%s:%d/%s", alloc, k, e.OfferedLabel())
}

// setRunning marks the case running.
func (tc *testCase) setRunning() {
	su := tc.suite
	su.mu.Lock()
	tc.status = statusRunning
	su.bumpLocked()
	su.mu.Unlock()
}

// setDone records a completed harness result.
func (tc *testCase) setDone(r harness.Result) {
	su := tc.suite
	su.mu.Lock()
	tc.status = statusDone
	tc.value = r.Value
	tc.cached = r.Cached
	tc.telemetry = r.Telemetry
	su.bumpLocked()
	su.mu.Unlock()
}

// setFailed records a failed run.
func (tc *testCase) setFailed(err error) {
	su := tc.suite
	su.mu.Lock()
	tc.status = statusFailed
	tc.errMsg = err.Error()
	su.bumpLocked()
	su.mu.Unlock()
}

// terminalLocked reports whether the case finished (done or failed).
// Callers hold su.mu.
func (tc *testCase) terminalLocked() bool {
	return tc.status == statusDone || tc.status == statusFailed
}

// resultLine is one streamed result. It deliberately excludes
// telemetry and cache provenance: the line is a pure function of the
// case's position, name, and spec, so two clients streaming identical
// grids read byte-identical bodies whether the results were simulated,
// deduplicated in flight, or served from the store.
type resultLine struct {
	Case   string          `json:"case"`
	Name   string          `json:"name"`
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Value  json.RawMessage `json:"value,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// lineLocked renders the case's stream line. Callers hold su.mu.
func (tc *testCase) lineLocked() resultLine {
	return resultLine{
		Case:   tc.id,
		Name:   tc.name,
		ID:     tc.storeID,
		Status: tc.status,
		Value:  tc.value,
		Error:  tc.errMsg,
	}
}
