package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"vix/internal/config"
	"vix/internal/harness"
	"vix/internal/store"
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

	mu    sync.Mutex
	cases []testCase
	// names and errs hold what few cases have, by case index: a
	// client-chosen display name, and a failed case's error message.
	names  map[int]string
	errs   map[int]string
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

// addCases appends cases to an open suite, optionally closes it, and
// returns the index of the first, or an error if the suite is already
// closed. A non-nil refused fails every new case with its message. Else
// a case whose spec st holds is finished here, as one counted store hit
// that never takes a run-queue slot; the rest are left queued, and
// misses returns their offsets in specs.
func (su *suite) addCases(specs []caseSpec, closeAfter bool, st *store.Store, refused error) (first int, misses []int, err error) {
	su.mu.Lock()
	defer su.mu.Unlock()
	if su.closed {
		return 0, nil, fmt.Errorf("service: suite %s %w", su.id, errSuiteClosed)
	}
	first = len(su.cases)
	for i, cs := range specs {
		tc := testCase{info: cs.info}
		if refused != nil {
			tc.state = stateFailed
			setNote(&su.errs, first+i, refused.Error())
		} else if e, ok := st.Get(cs.info.storeID); ok {
			cs.info.setResult(e.Value, e.Telemetry.WallNanos)
			tc.state, tc.cached = stateDone, true
		} else {
			misses = append(misses, i)
		}
		setNote(&su.names, first+i, cs.Name)
		su.cases = append(su.cases, tc)
	}
	if closeAfter {
		su.closed = true
	}
	su.bumpLocked()
	return first, misses, nil
}

// setNote records a non-empty note for case i in *m, one of a suite's
// side maps, making the map on first use. Callers hold su.mu.
func setNote(m *map[int]string, i int, note string) {
	if note == "" {
		return
	}
	if *m == nil {
		*m = make(map[int]string)
	}
	(*m)[i] = note
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
	for next < len(su.cases) && su.cases[next].terminal() {
		lines = append(lines, su.lineLocked(next))
		next++
	}
	done = su.closed && next == len(su.cases)
	return lines, next, done, su.changed
}

// caseSpec is one validated case submission.
type caseSpec struct {
	Name string
	// text is the spec as the client wrote it; the runner decodes it
	// again only if the store misses.
	text json.RawMessage
	// info is found or computed at admission, so a malformed-for-hashing
	// spec is the client's 400, not a runner failure.
	info *specInfo
	// fresh marks an info parseCases made for a store ID the table did
	// not hold; submit interns it, under text as well when spelled.
	fresh, spelled bool
}

// specInfo is what a case's responses and its run need of its spec. All
// fields are functions of the spec alone, so one interned copy serves
// every case of that spec, from any suite or client.
type specInfo struct {
	storeID string // the spec's content hash: its result-store key
	label   string // display label, e.g. "vixd/if:2/0.05"
	cycles  int64  // warmup + measure, the store entry's telemetry cycles
	// result is the spec's store entry as its cases show it, set by the
	// first case of the spec to finish. It is written once and read
	// without a lock: a case reads it only once it is done, and a case
	// is marked done only after the result is set.
	result atomic.Pointer[specResult]
}

// specResult is the part of a spec's store entry its done cases show:
// the value, and the wall time of the run that computed it.
type specResult struct {
	value     json.RawMessage
	wallNanos int64
}

// setResult records the spec's result unless one is recorded already.
// Every entry for one store ID carries the same value, so the first is
// as good as any.
func (in *specInfo) setResult(value json.RawMessage, wallNanos int64) {
	if in.result.Load() == nil {
		in.result.CompareAndSwap(nil, &specResult{value: value, wallNanos: wallNanos})
	}
}

// specTable interns specInfo twice over. byID holds every admitted spec
// under its store ID, the hash of its canonical text (json.Marshal of
// the decoded spec). bySpelling holds a spec under the exact bytes a
// client first sent it in, so the same bytes sent again are served
// without decoding: a spelling decodes to its spec by construction. A
// spelling is kept only for a store ID new to the table and only if it
// is no longer than the spec's canonical text, so the table keeps at
// most one spelling per spec and a padded spelling pins nothing. It is
// never pruned, so it is bounded the way the result store is. Its lock
// is a leaf: it is never taken while holding s.mu or a su.mu.
type specTable struct {
	mu         sync.Mutex
	byID       map[string]*specInfo
	bySpelling map[string]*specInfo
}

// lookup returns the info interned under the spelling text, or nil.
func (t *specTable) lookup(text []byte) *specInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bySpelling[string(text)]
}

// intern returns the table's info of cs's store ID, adding cs's info,
// and its text as the spec's spelling if cs.spelled, when the ID is new.
func (t *specTable) intern(cs caseSpec) *specInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	if in, ok := t.byID[cs.info.storeID]; ok {
		return in
	}
	if t.byID == nil {
		t.byID = make(map[string]*specInfo)
		t.bySpelling = make(map[string]*specInfo)
	}
	t.byID[cs.info.storeID] = cs.info
	if cs.spelled {
		t.bySpelling[string(cs.text)] = cs.info
	}
	return cs.info
}

// resolve returns the case spec of a decoded spec e that a client
// spelled text: the interned info if e's store ID was admitted before,
// otherwise a new info that submit interns, under text too if text is no
// longer than e's canonical text.
func (t *specTable) resolve(e config.Experiment, text json.RawMessage) (caseSpec, error) {
	canon, err := json.Marshal(e)
	if err != nil {
		return caseSpec{}, err
	}
	label := specLabel(e)
	id := harness.SpecID(label, canon)
	t.mu.Lock()
	info := t.byID[id]
	t.mu.Unlock()
	if info != nil {
		return caseSpec{text: text, info: info}, nil
	}
	info = &specInfo{storeID: id, label: label, cycles: int64(e.Warmup + e.Measure)}
	return caseSpec{text: text, info: info, fresh: true, spelled: len(text) <= len(canon)}, nil
}

// testCase is one case of a suite, kept for as long as the server runs:
// a 16-byte row of what differs between cases of one spec. The value and
// wall time are the spec's, on its shared info; a client name or error
// message sits in the suite's side maps; the spec text rides the
// run-queue entry and is gone once the case has run; the case ID is its
// index in the suite. Rows are written under su.mu.
type testCase struct {
	info   *specInfo
	state  caseState
	cached bool
}

// caseID renders the suite-relative ID of the case at index i: "c0",
// "c1", ...
func caseID(i int) string { return "c" + strconv.Itoa(i) }

// nameLocked is case i's name in payloads: the client's choice, or else
// the spec's label. Callers hold su.mu.
func (su *suite) nameLocked(i int) string {
	if name, ok := su.names[i]; ok {
		return name
	}
	return su.cases[i].info.label
}

// resultLocked is what case i shows of its spec's result: nothing
// unless it is done. Callers hold su.mu.
func (su *suite) resultLocked(i int) specResult {
	if su.cases[i].state != stateDone {
		return specResult{}
	}
	return *su.cases[i].info.result.Load()
}

// queued is one run-queue entry: where the case lives, its spec, and the
// spec text it runs. The text is held here rather than on the case so
// that a finished case does not keep it.
type queued struct {
	su    *suite
	index int
	info  *specInfo
	text  json.RawMessage
}

// job converts the entry into the harness job that executes it. The
// job's name is derived from the spec alone — never from the suite or
// client — so identical specs from anywhere share one store identity.
// The spec text is decoded only when the job runs, i.e. on a store miss.
func (q queued) job() harness.Job {
	info := q.info
	return harness.Job{
		Name:   info.label,
		Cycles: info.cycles,
		Run: func(ctx context.Context) (any, error) {
			e, err := config.Decode(bytes.NewReader(q.text))
			if err != nil {
				return nil, err
			}
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
	r := e.Resolved()
	return fmt.Sprintf("vixd/%s:%d/%s", r.Allocator, r.VirtualInputs, r.OfferedLabel())
}

// setRunning marks case i running. It wakes no stream: streams wait
// only for cases to finish.
func (su *suite) setRunning(i int) {
	su.mu.Lock()
	su.cases[i].state = stateRunning
	su.mu.Unlock()
}

// setDone marks case i done; its spec's result is already set.
func (su *suite) setDone(i int, cached bool) {
	su.mu.Lock()
	su.cases[i].state = stateDone
	su.cases[i].cached = cached
	su.bumpLocked()
	su.mu.Unlock()
}

// setFailed records a failed run of case i.
func (su *suite) setFailed(i int, err error) {
	su.mu.Lock()
	su.cases[i].state = stateFailed
	setNote(&su.errs, i, err.Error())
	su.bumpLocked()
	su.mu.Unlock()
}

// terminal reports whether the case finished (done or failed).
func (tc testCase) terminal() bool {
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
func (su *suite) lineLocked(i int) resultLine {
	tc := su.cases[i]
	return resultLine{
		Case:   caseID(i),
		Name:   su.nameLocked(i),
		ID:     tc.info.storeID,
		Status: tc.state.String(),
		Value:  su.resultLocked(i).value,
		Error:  su.errs[i],
	}
}

// appendResultLine appends ln as json.Marshal encodes it, field by field
// in resultLine's order. The value is copied verbatim: every value the
// store serves is already spelled as json.Marshal writes it (compact,
// HTML-escaped), so a stored case costs one copy of its bytes.
func appendResultLine(b []byte, ln resultLine) []byte {
	b = append(b, `{"case":`...)
	b = appendString(b, ln.Case)
	b = append(b, `,"name":`...)
	b = appendString(b, ln.Name)
	b = append(b, `,"id":`...)
	b = appendString(b, ln.ID)
	b = append(b, `,"status":`...)
	b = appendString(b, ln.Status)
	if len(ln.Value) > 0 {
		b = append(b, `,"value":`...)
		b = append(b, ln.Value...)
	}
	if ln.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, ln.Error)
	}
	return append(b, '}')
}

// appendString appends s as a JSON string exactly as encoding/json
// writes it. Printable ASCII that JSON and HTML escaping leave alone is
// copied; anything else (quotes, backslashes, <>&, control characters,
// non-ASCII, invalid UTF-8) is left to encoding/json itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
