package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"vix/internal/config"
)

// caseRequest is one case submission on the wire. Spec is decoded with
// the same defaulting and validation as a -config file (config.Decode),
// so a spec means the same thing to vixd and to every CLI.
type caseRequest struct {
	Name string          `json:"name,omitempty"`
	Spec json.RawMessage `json:"spec"`
}

// suiteRequest creates a suite, optionally with an inline grid of cases
// and an immediate close — the one-shot "POST a whole grid" form.
type suiteRequest struct {
	Name  string        `json:"name,omitempty"`
	Cases []caseRequest `json:"cases,omitempty"`
	Close bool          `json:"close,omitempty"`
}

// casesRequest adds cases to an open suite: either one caseRequest or a
// {"cases": [...]} batch.
type casesRequest struct {
	Name  string          `json:"name,omitempty"`
	Spec  json.RawMessage `json:"spec,omitempty"`
	Cases []caseRequest   `json:"cases,omitempty"`
	Close bool            `json:"close,omitempty"`
}

// submitResponse acknowledges created suites/cases.
type submitResponse struct {
	Suite  string   `json:"suite"`
	Cases  []string `json:"cases,omitempty"`
	Closed bool     `json:"closed"`
}

// errorResponse is every non-2xx body: a flat message plus, for
// validation failures, the per-field breakdown under JSON paths.
type errorResponse struct {
	Error  string              `json:"error"`
	Fields []config.FieldError `json:"fields,omitempty"`
}

// caseStatus is one case in a suite status payload. Unlike the result
// stream, status includes provenance (cached) and telemetry — these
// legitimately differ between identical grids, which is why they live
// here and not in /results.
type caseStatus struct {
	Case      string `json:"case"`
	Name      string `json:"name"`
	ID        string `json:"id"`
	Status    string `json:"status"`
	Cached    bool   `json:"cached"`
	WallNanos int64  `json:"wall_ns,omitempty"`
	Error     string `json:"error,omitempty"`
}

// suiteStatus is the GET /suites/{id} payload.
type suiteStatus struct {
	Suite  string       `json:"suite"`
	Name   string       `json:"name,omitempty"`
	Closed bool         `json:"closed"`
	Done   bool         `json:"done"`
	Cases  []caseStatus `json:"cases"`
}

// statsResponse is the GET /statsz payload.
type statsResponse struct {
	Suites  int   `json:"suites"`
	Cases   int   `json:"cases"`
	Queued  int   `json:"queued"`
	Entries int   `json:"store_entries"`
	Hits    int64 `json:"store_hits"`
	Misses  int64 `json:"store_misses"`
	Dedup   int64 `json:"store_inflight_dedup"`
	Served  int64 `json:"store_served"`
}

// routes builds the service mux.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /statsz", s.handleStats)
	mux.HandleFunc("POST /suites", s.handleCreateSuite)
	mux.HandleFunc("GET /suites/{id}", s.handleSuiteStatus)
	mux.HandleFunc("POST /suites/{id}/cases", s.handleAddCases)
	mux.HandleFunc("POST /suites/{id}/close", s.handleCloseSuite)
	mux.HandleFunc("GET /suites/{id}/results", s.handleResults)
	return mux
}

// writeJSON writes one JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// maxBodyBytes caps a POST body. The largest grid any client in this
// repository posts is kilobytes; the cap only keeps one request from
// buffering without bound.
const maxBodyBytes = 4 << 20

// decodeBody decodes src — one JSON value, nothing but whitespace after
// it — into v; what names the body in the error.
func decodeBody(src io.Reader, what string, v any) error {
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		switch _, err = dec.Token(); err {
		case io.EOF:
			return nil
		case nil:
			err = errors.New("unexpected data after the JSON value")
		}
	}
	return fmt.Errorf("service: parsing %s: %w", what, err)
}

// decodeRequest decodes a POST body with encoding/json and validates its
// cases; named is POST /suites' form, and the other is POST
// /suites/{id}/cases', whose body may also be one {"name","spec"} case.
func (s *Server) decodeRequest(src io.Reader, named bool) (request, error) {
	if named {
		var req suiteRequest
		if err := decodeBody(src, "suite request", &req); err != nil {
			return request{}, err
		}
		specs, err := s.parseCases(req.Cases)
		return request{name: req.Name, specs: specs, close: req.Close}, err
	}
	var req casesRequest
	if err := decodeBody(src, "case request", &req); err != nil {
		return request{}, err
	}
	raw := req.Cases
	if len(req.Spec) > 0 {
		raw = append([]caseRequest{{Name: req.Name, Spec: req.Spec}}, raw...)
	}
	specs, err := s.parseCases(raw)
	return request{specs: specs, close: req.Close}, err
}

// writeError writes a non-2xx JSON body, splitting validation errors
// into their per-field form.
func writeError(w http.ResponseWriter, code int, err error) {
	resp := errorResponse{Error: err.Error()}
	var ve config.ValidationError
	if errors.As(err, &ve) {
		resp.Fields = ve
	}
	writeJSON(w, code, resp)
}

// clientID keys quota buckets: the X-Vix-Client header when present,
// otherwise the connection's host address.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Vix-Client"); c != "" {
		return c
	}
	host := r.RemoteAddr
	if i := strings.LastIndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	if host == "" {
		return "anonymous"
	}
	return host
}

// parseCases validates raw case submissions into admitted caseSpecs.
// Validation failures come back as one ValidationError naming every bad
// field under its cases[i].spec path. A spec in a spelling the table
// holds is served from it without decoding; any other is decoded and
// finds its interned info by its store ID.
func (s *Server) parseCases(raw []caseRequest) ([]caseSpec, error) {
	specs := make([]caseSpec, 0, len(raw))
	var errs config.ValidationError
	for i, cr := range raw {
		if len(cr.Spec) == 0 {
			errs = append(errs, config.FieldError{Field: specPath(i), Msg: "missing experiment spec"})
			continue
		}
		if info := s.specs.lookup(cr.Spec); info != nil {
			specs = append(specs, caseSpec{Name: cr.Name, text: cr.Spec, info: info})
			continue
		}
		e, err := config.Decode(bytes.NewReader(cr.Spec))
		if err != nil {
			var ve config.ValidationError
			if errors.As(err, &ve) {
				for _, fe := range ve {
					errs = append(errs, config.FieldError{Field: specPath(i) + "." + fe.Field, Msg: fe.Msg})
				}
			} else {
				errs = append(errs, config.FieldError{Field: specPath(i), Msg: err.Error()})
			}
			continue
		}
		cs, err := s.specs.resolve(e, cr.Spec)
		if err != nil {
			errs = append(errs, config.FieldError{Field: specPath(i), Msg: err.Error()})
			continue
		}
		cs.Name = cr.Name
		specs = append(specs, cs)
	}
	if len(errs) > 0 {
		return nil, errs
	}
	return specs, nil
}

// specPath is the JSON path of the i'th case's spec in a request.
func specPath(i int) string { return "cases[" + strconv.Itoa(i) + "].spec" }

// admit runs quota admission for n cases, writing the 429 itself when
// the client's bucket is dry.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, n int) bool {
	if n < 1 {
		n = 1
	}
	ok, retryAfter := s.quotas.admit(clientID(r), n)
	if ok {
		return true
	}
	// Clamped before the conversion: a tiny rate's wait overflows an int.
	secs := int(math.Ceil(min(retryAfter, math.MaxInt32)))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusTooManyRequests,
		fmt.Errorf("service: admission quota exhausted for client %q; retry after %ds", clientID(r), secs))
	return false
}

// submit admits parsed cases into a suite: stored specs are served at
// once, the rest queued, and all of them failed if the server is
// draining. New specs are interned here, before su.mu is taken: the
// intern table's lock is never held under a suite's.
func (s *Server) submit(su *suite, specs []caseSpec, closeAfter bool) ([]string, error) {
	for i, cs := range specs {
		if cs.fresh {
			specs[i].info = s.specs.intern(cs)
		}
	}
	first, err := s.enqueue(su, specs, closeAfter)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(specs))
	for i := range specs {
		ids[i] = caseID(first + i)
	}
	return ids, nil
}

// handleCreateSuite opens a suite, optionally admitting an inline grid
// and closing it immediately (the one-shot form).
func (s *Server) handleCreateSuite(w http.ResponseWriter, r *http.Request) {
	req, ok := s.readRequest(w, r, true)
	if !ok || !s.admit(w, r, len(req.specs)) {
		return
	}
	su, err := s.createSuite(req.name)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	ids, err := s.submit(su, req.specs, req.close)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	s.logf("%s: created (%q, %d cases, closed=%v)", su.id, su.name, len(ids), req.close)
	writeJSON(w, http.StatusCreated, submitResponse{Suite: su.id, Cases: ids, Closed: req.close})
}

// createSuite registers a new suite under the next deterministic ID.
func (s *Server) createSuite(name string) (*suite, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return nil, errShuttingDown
	}
	s.nextSuite++
	su := newSuite("s"+strconv.Itoa(s.nextSuite), name)
	s.suites[su.id] = su
	s.order = append(s.order, su)
	return su, nil
}

// suite looks up a suite by ID.
func (s *Server) suite(id string) *suite {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.suites[id]
}

// isClosing reports whether the server is draining.
func (s *Server) isClosing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closing
}

// handleAddCases admits cases into an open suite. The body is either
// one {"name","spec"} case or a {"cases":[...], "close":bool} batch.
func (s *Server) handleAddCases(w http.ResponseWriter, r *http.Request) {
	su := s.suite(r.PathValue("id"))
	if su == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no suite %q", r.PathValue("id")))
		return
	}
	req, ok := s.readRequest(w, r, false)
	if !ok {
		return
	}
	if len(req.specs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: no cases in request; send {\"spec\": {...}} or {\"cases\": [...]}"))
		return
	}
	if !s.admit(w, r, len(req.specs)) {
		return
	}
	ids, err := s.submit(su, req.specs, req.close)
	if err != nil {
		code := http.StatusServiceUnavailable
		if errors.Is(err, errSuiteClosed) {
			code = http.StatusConflict
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusCreated, submitResponse{Suite: su.id, Cases: ids, Closed: req.close})
}

// handleCloseSuite closes the suite to further cases; its results
// stream completes once every admitted case is terminal.
func (s *Server) handleCloseSuite(w http.ResponseWriter, r *http.Request) {
	su := s.suite(r.PathValue("id"))
	if su == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no suite %q", r.PathValue("id")))
		return
	}
	su.close()
	writeJSON(w, http.StatusOK, submitResponse{Suite: su.id, Closed: true})
}

// handleSuiteStatus reports the suite and every case, including cache
// provenance and wall-clock telemetry.
func (s *Server) handleSuiteStatus(w http.ResponseWriter, r *http.Request) {
	su := s.suite(r.PathValue("id"))
	if su == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no suite %q", r.PathValue("id")))
		return
	}
	su.mu.Lock()
	st := suiteStatus{Suite: su.id, Name: su.name, Closed: su.closed, Done: su.closed, Cases: make([]caseStatus, len(su.cases))}
	for i, tc := range su.cases {
		if !tc.terminal() {
			st.Done = false
		}
		st.Cases[i] = caseStatus{
			Case:      caseID(i),
			Name:      su.nameLocked(i),
			ID:        tc.info.storeID,
			Status:    tc.state.String(),
			Cached:    tc.cached,
			WallNanos: su.resultLocked(i).wallNanos,
			Error:     su.errs[i],
		}
	}
	su.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleResults streams the suite's results in case order — newline-
// delimited JSON by default, server-sent events when the client asks
// for text/event-stream. Lines are emitted as cases finish (a slow case
// holds back later lines so order is canonical), and the stream ends
// when the suite is closed and drained. Because each line is a pure
// function of the case's position and spec, identical grids stream
// byte-identical bodies however their results were obtained.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	su := s.suite(r.PathValue("id"))
	if su == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no suite %q", r.PathValue("id")))
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
	} else {
		w.Header().Set("Content-Type", "application/jsonl")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	var buf []byte
	i := 0
	for {
		lines, next, done, changed := su.snapshot(i)
		i = next
		if len(lines) > 0 {
			buf = buf[:0]
			for _, ln := range lines {
				if sse {
					buf = append(buf, "event: result\ndata: "...)
					buf = append(appendResultLine(buf, ln), "\n\n"...)
				} else {
					buf = append(appendResultLine(buf, ln), '\n')
				}
			}
			if _, err := w.Write(buf); err != nil {
				return
			}
			flush()
		}
		if done {
			if sse {
				_, _ = fmt.Fprintf(w, "event: done\ndata: {\"suite\":%q}\n\n", su.id)
			}
			flush()
			return
		}
		// A draining server admits no new cases and Close runs the queue
		// dry, so once every admitted case has streamed there is nothing
		// left to wait for even if the client never closed the suite.
		if s.isClosing() && su.drained(i) {
			flush()
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// drained reports whether every admitted case below the suite's current
// length is already streamed at position i.
func (su *suite) drained(i int) bool {
	su.mu.Lock()
	defer su.mu.Unlock()
	return i == len(su.cases)
}

// handleHealth is the liveness probe.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

// handleStats reports store accounting and queue depth. It takes only
// s.mu, for counters kept there, so its cost does not grow with the
// cases a server has admitted.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.store.Stats()
	s.mu.Lock()
	resp := statsResponse{
		Suites:  len(s.suites),
		Cases:   s.cases,
		Queued:  len(s.queue),
		Entries: st.Entries,
		Hits:    st.Hits,
		Misses:  st.Misses,
		Dedup:   st.InflightDedup,
		Served:  st.Served(),
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}
