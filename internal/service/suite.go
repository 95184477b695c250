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
)

// caseState is where a case is in its lifecycle. It is a byte, not the
// string a payload shows, because a server keeps every case it admitted.
type caseState uint8

const (
	stateQueued caseState = iota
	stateRunning
	stateDone
	stateFailed
)

// String is the state as it appears in status and result payloads.
func (st caseState) String() string {
	return [...]string{"queued", "running", "done", "failed"}[st]
}

// suite is one client-created collection of cases. Suite IDs ("s1",
// "s2", ...) and case IDs ("c0", "c1", ... within a suite) are
// deterministic counters, so a scripted client sees stable names. Lock
// order: s.mu before su.mu, never the other way round.
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

// addCases appends cases to an open suite and optionally closes it. It
// returns the new cases and the index of the first, or an error if the
// suite is already closed.
func (su *suite) addCases(specs []caseSpec, closeAfter bool) (first int, added []*testCase, err error) {
	su.mu.Lock()
	defer su.mu.Unlock()
	if su.closed {
		return 0, nil, fmt.Errorf("service: suite %s %w", su.id, errSuiteClosed)
	}
	first = len(su.cases)
	added = make([]*testCase, len(specs))
	for i, cs := range specs {
		added[i] = &testCase{info: cs.info, name: cs.Name}
	}
	su.cases = append(su.cases, added...)
	if closeAfter {
		su.closed = true
	}
	su.bumpLocked()
	return first, added, nil
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
		lines = append(lines, su.cases[next].lineLocked(next))
		next++
	}
	done = su.closed && next == len(su.cases)
	return lines, next, done, su.changed
}

// caseSpec is one validated case submission.
type caseSpec struct {
	Name string
	Spec config.Experiment
	// info is found or computed at admission, so a malformed-for-hashing
	// spec is the client's 400, not a runner failure.
	info *specInfo
}

// specInfo is what a case's responses need of its spec. Both fields are
// functions of the spec alone, so one interned copy serves every case
// of that spec, from any suite or client.
type specInfo struct {
	storeID string // the spec's content hash: its result-store key
	label   string // display label, e.g. "vixd/if:2/0.05"
}

// specTable interns specInfo by spec. It holds one entry per distinct
// admitted spec and is never pruned, so it is bounded the way the result
// store is. Its lock is a leaf: it is never taken while holding s.mu or
// a su.mu. Keying by value is exact: config.Experiment has only scalar
// and string fields, and its one float, injection_rate, is validated
// > 0 (no NaN, no signed zero), so equal specs are the specs that
// encode, and hash, identically.
type specTable struct {
	mu    sync.Mutex
	infos map[config.Experiment]*specInfo
}

// lookup returns e's interned info, or nil if e was never admitted.
func (t *specTable) lookup(e config.Experiment) *specInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.infos[e]
}

// intern returns the table's info for e, adding info if e is new.
func (t *specTable) intern(e config.Experiment, info *specInfo) *specInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	if in, ok := t.infos[e]; ok {
		return in
	}
	if t.infos == nil {
		t.infos = make(map[config.Experiment]*specInfo)
	}
	t.infos[e] = info
	return info
}

// testCase is one case of a suite, kept for as long as the server runs:
// only what its status and result lines are built from. The spec itself
// rides the run-queue entry and is gone once the case has run; the case
// ID is its index in the suite. Fields are written under su.mu; info is
// shared and never written.
type testCase struct {
	info      *specInfo
	name      string // client-chosen display name; "" shows the label
	value     json.RawMessage
	errMsg    string
	wallNanos int64
	state     caseState
	cached    bool
}

// caseID renders the suite-relative ID of the case at index i: "c0",
// "c1", ...
func caseID(i int) string { return "c" + strconv.Itoa(i) }

// displayName is the case's name in payloads: the client's choice, or
// else the spec's label.
func (tc *testCase) displayName() string {
	if tc.name != "" {
		return tc.name
	}
	return tc.info.label
}

// queued is one run-queue entry: a case, where it lives, and the spec it
// runs. The spec is held here rather than on the case so that a finished
// case does not keep it; it points into its submission's parsed batch,
// which lives until the batch's last case has run.
type queued struct {
	su    *suite
	index int
	tc    *testCase
	spec  *config.Experiment
}

// job converts the entry into the harness job that executes it. The
// job's name and spec are derived from the experiment alone — never
// from the suite or client — so identical specs from anywhere share one
// store identity.
func (q queued) job() harness.Job {
	e := *q.spec
	return harness.Job{
		Name:   q.tc.info.label,
		Spec:   e,
		Cycles: int64(e.Warmup + e.Measure),
		Run: func(ctx context.Context) (any, error) {
			s, err := e.Run()
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
func (su *suite) setRunning(tc *testCase) {
	su.mu.Lock()
	tc.state = stateRunning
	su.bumpLocked()
	su.mu.Unlock()
}

// setDone records a completed harness result.
func (su *suite) setDone(tc *testCase, r harness.Result) {
	su.mu.Lock()
	tc.state = stateDone
	tc.value = r.Value
	tc.cached = r.Cached
	tc.wallNanos = r.Telemetry.WallNanos
	su.bumpLocked()
	su.mu.Unlock()
}

// setFailed records a failed run.
func (su *suite) setFailed(tc *testCase, err error) {
	su.mu.Lock()
	tc.state = stateFailed
	tc.errMsg = err.Error()
	su.bumpLocked()
	su.mu.Unlock()
}

// terminalLocked reports whether the case finished (done or failed).
// Callers hold su.mu.
func (tc *testCase) terminalLocked() bool {
	return tc.state == stateDone || tc.state == stateFailed
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

// lineLocked renders the stream line of the case at index i. Callers
// hold su.mu.
func (tc *testCase) lineLocked(i int) resultLine {
	return resultLine{
		Case:   caseID(i),
		Name:   tc.displayName(),
		ID:     tc.info.storeID,
		Status: tc.state.String(),
		Value:  tc.value,
		Error:  tc.errMsg,
	}
}
