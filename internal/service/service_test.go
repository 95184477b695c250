package service_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"vix/internal/alloc"
	"vix/internal/service"
)

// smallSpec is a fast-but-real experiment body: a full 8x8 mesh, short
// windows. Offsetting the seed keeps specs distinct where tests need
// misses.
func smallSpec(seed uint64) string {
	return fmt.Sprintf(`{"warmup": 20, "measure": 60, "packet_size": 2, "injection_rate": 0.02, "seed": %d}`, seed)
}

// gridBody is a one-shot suite: two cases, closed at creation.
func gridBody() string {
	return fmt.Sprintf(`{"name": "grid", "cases": [{"spec": %s}, {"spec": %s}], "close": true}`,
		smallSpec(1), smallSpec(2))
}

// newTestServer starts a service (over an in-memory store unless cfg
// names a file) and returns it with its HTTP front end.
func newTestServer(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := svc.Close(); err != nil {
			t.Errorf("service.Close: %v", err)
		}
	})
	return svc, ts
}

// post sends a JSON body and decodes the response envelope.
func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", url, err)
	}
	return resp.StatusCode, data
}

// get fetches a URL to completion.
func get(t *testing.T, url string, header map[string]string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, data
}

// postGridE creates a one-shot suite and returns its ID. It is safe to
// call from spawned goroutines (no testing.T).
func postGridE(base, body string) (string, error) {
	resp, err := http.Post(base+"/suites", "application/json", strings.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("POST /suites = %d, want 201 (body %s)", resp.StatusCode, data)
	}
	var sr struct {
		Suite string `json:"suite"`
	}
	if err := json.Unmarshal(data, &sr); err != nil {
		return "", fmt.Errorf("decoding suite response %q: %w", data, err)
	}
	if sr.Suite == "" {
		return "", fmt.Errorf("no suite ID in %s", data)
	}
	return sr.Suite, nil
}

// postGrid is postGridE with fatal error handling.
func postGrid(t *testing.T, base, body string) string {
	t.Helper()
	suite, err := postGridE(base, body)
	if err != nil {
		t.Fatal(err)
	}
	return suite
}

// streamResultsE blocks until the suite's JSONL result stream completes
// and returns the raw body. Goroutine-safe (no testing.T).
func streamResultsE(base, suite string) ([]byte, error) {
	resp, err := http.Get(base + "/suites/" + suite + "/results")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET results = %d (body %s)", resp.StatusCode, data)
	}
	return data, nil
}

// streamResults is streamResultsE with fatal error handling.
func streamResults(t *testing.T, base, suite string) []byte {
	t.Helper()
	data, err := streamResultsE(base, suite)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSuiteLifecycle drives the hive-style flow end to end: open suite,
// add cases one at a time, close, stream results in case order.
func TestSuiteLifecycle(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Runners: 2})

	code, data := post(t, ts.URL+"/suites", `{"name": "manual"}`)
	if code != http.StatusCreated {
		t.Fatalf("POST /suites = %d (body %s)", code, data)
	}
	var created struct {
		Suite string `json:"suite"`
	}
	if err := json.Unmarshal(data, &created); err != nil {
		t.Fatal(err)
	}
	if created.Suite != "s1" {
		t.Fatalf("first suite ID = %q, want s1", created.Suite)
	}

	for i := 0; i < 2; i++ {
		code, data = post(t, ts.URL+"/suites/s1/cases",
			fmt.Sprintf(`{"name": "point-%d", "spec": %s}`, i, smallSpec(uint64(10+i))))
		if code != http.StatusCreated {
			t.Fatalf("POST cases = %d (body %s)", code, data)
		}
	}
	code, data = post(t, ts.URL+"/suites/s1/close", "")
	if code != http.StatusOK {
		t.Fatalf("POST close = %d (body %s)", code, data)
	}

	body := streamResults(t, ts.URL, "s1")
	lines := nonEmptyLines(body)
	if len(lines) != 2 {
		t.Fatalf("stream has %d lines, want 2:\n%s", len(lines), body)
	}
	for i, ln := range lines {
		var res struct {
			Case   string          `json:"case"`
			Name   string          `json:"name"`
			ID     string          `json:"id"`
			Status string          `json:"status"`
			Value  json.RawMessage `json:"value"`
		}
		if err := json.Unmarshal([]byte(ln), &res); err != nil {
			t.Fatalf("line %d %q: %v", i, ln, err)
		}
		if want := fmt.Sprintf("c%d", i); res.Case != want {
			t.Errorf("line %d is case %q, want %q (stream must be in case order)", i, res.Case, want)
		}
		if res.Status != "done" || len(res.Value) == 0 || res.ID == "" {
			t.Errorf("line %d = %s, want done with a value and store ID", i, ln)
		}
		if want := fmt.Sprintf("point-%d", i); res.Name != want {
			t.Errorf("line %d name = %q, want %q", i, res.Name, want)
		}
	}

	// Closed suites reject further cases.
	code, data = post(t, ts.URL+"/suites/s1/cases", fmt.Sprintf(`{"spec": %s}`, smallSpec(99)))
	if code != http.StatusConflict {
		t.Errorf("POST cases after close = %d, want 409 (body %s)", code, data)
	}
	// Unknown suites 404.
	if code, _ = get(t, ts.URL+"/suites/s999", nil); code != http.StatusNotFound {
		t.Errorf("GET unknown suite = %d, want 404", code)
	}
}

// TestCacheExactness pins the memoization contract at the HTTP surface:
// POSTing the same grid twice yields a byte-identical result stream,
// and the second pass performs zero simulations — every case is served
// from the store.
func TestCacheExactness(t *testing.T) {
	svc, ts := newTestServer(t, service.Config{Runners: 2})

	first := streamResults(t, ts.URL, postGrid(t, ts.URL, gridBody()))
	misses := svc.StoreStats().Misses
	if misses != 2 {
		t.Fatalf("first grid simulated %d cases, want 2", misses)
	}
	// A case's store key is its label and config.Experiment, content-hashed;
	// stores on disk are keyed by it, so it must not move. smallSpec(1) has
	// had this ID since before config.Experiment.Run became the runner.
	if ln := nonEmptyLines(first)[0]; !strings.Contains(ln, `"id":"cc98b8a27d875f5b5c507929"`) {
		t.Errorf("smallSpec(1) changed its store ID; existing stores would stop serving it:\n%s", ln)
	}

	second := streamResults(t, ts.URL, postGrid(t, ts.URL, gridBody()))
	if string(first) != string(second) {
		t.Errorf("second stream differs from first:\n--- first\n%s--- second\n%s", first, second)
	}
	stats := svc.StoreStats()
	if stats.Misses != misses {
		t.Errorf("second grid simulated %d new cases, want 0 (served from store)", stats.Misses-misses)
	}
	if stats.Served() != 2 {
		t.Errorf("store served %d results, want 2", stats.Served())
	}
}

// TestTwoClientsSingleFlight is the tentpole acceptance test: two
// clients concurrently POST an identical spec; both get byte-identical
// results and exactly one simulation runs.
func TestTwoClientsSingleFlight(t *testing.T) {
	svc, ts := newTestServer(t, service.Config{Runners: 2})

	body := fmt.Sprintf(`{"cases": [{"spec": %s}], "close": true}`, smallSpec(7))
	var (
		wg      sync.WaitGroup
		streams [2][]byte
		errs    [2]error
	)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			suite, err := postGridE(ts.URL, body)
			if err != nil {
				errs[i] = err
				return
			}
			streams[i], errs[i] = streamResultsE(ts.URL, suite)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	if len(streams[0]) == 0 || string(streams[0]) != string(streams[1]) {
		t.Errorf("clients saw different results:\n--- A\n%s--- B\n%s", streams[0], streams[1])
	}
	if misses := svc.StoreStats().Misses; misses != 1 {
		t.Errorf("identical spec simulated %d times across two clients, want exactly 1", misses)
	}
	if served := svc.StoreStats().Served(); served != 1 {
		t.Errorf("store served %d results, want 1 (hit or in-flight share)", served)
	}
}

// TestRestartServesFromStore completes the acceptance criterion: a new
// server over the same on-disk store answers a previously-simulated
// spec without re-simulating.
func TestRestartServesFromStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")

	svc1, err := service.New(service.Config{StorePath: path})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(svc1.Handler())
	first := streamResults(t, ts1.URL, postGrid(t, ts1.URL, gridBody()))
	if m := svc1.StoreStats().Misses; m != 2 {
		t.Fatalf("first server simulated %d cases, want 2", m)
	}
	ts1.Close()
	if err := svc1.Close(); err != nil {
		t.Fatalf("closing first server: %v", err)
	}

	svc2, ts2 := newTestServer(t, service.Config{StorePath: path})
	second := streamResults(t, ts2.URL, postGrid(t, ts2.URL, gridBody()))
	if string(first) != string(second) {
		t.Errorf("restarted server streamed different results:\n--- before\n%s--- after\n%s", first, second)
	}
	stats := svc2.StoreStats()
	if stats.Misses != 0 {
		t.Errorf("restarted server simulated %d cases, want 0 (on-disk store)", stats.Misses)
	}
	if stats.Hits != 2 {
		t.Errorf("restarted server hit the store %d times, want 2", stats.Hits)
	}
}

// TestStoredSpellingStreamsCanonically: a store file whose values are
// spelled with spaces — hand-edited, or written by another tool — streams
// the same lines as the compact file the server wrote, because result
// lines copy stored values verbatim and Open respells them.
func TestStoredSpellingStreamsCanonically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	svc1, err := service.New(service.Config{StorePath: path})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(svc1.Handler())
	first := streamResults(t, ts1.URL, postGrid(t, ts1.URL, gridBody()))
	ts1.Close()
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spaced []byte
	for _, ln := range nonEmptyLines(data) {
		var e map[string]json.RawMessage
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatal(err)
		}
		value := strings.NewReplacer("{", "{ ", ",", " ,\t", ":", " : ", "}", " }").Replace(string(e["value"]))
		spaced = fmt.Appendf(spaced, `{"id": %s, "name": %s, "value":  %s , "telemetry": %s}`+"\n", e["id"], e["name"], value, e["telemetry"])
	}
	if string(spaced) == string(data) {
		t.Fatal("respelling the store file changed nothing")
	}
	if err := os.WriteFile(path, spaced, 0o644); err != nil {
		t.Fatal(err)
	}

	svc2, ts2 := newTestServer(t, service.Config{StorePath: path})
	second := streamResults(t, ts2.URL, postGrid(t, ts2.URL, gridBody()))
	if string(first) != string(second) {
		t.Errorf("a respelled store streamed different lines:\n--- compact\n%s--- spaced\n%s", first, second)
	}
	if m := svc2.StoreStats().Misses; m != 0 {
		t.Errorf("server over the respelled store simulated %d cases, want 0", m)
	}
}

// TestValidationErrors pins the 400 contract: malformed specs are
// rejected before admission with every offending field named by path.
func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})

	body := `{"cases": [{"spec": {"allocator": "magic", "injection_rate": 7}}], "close": true}`
	code, data := post(t, ts.URL+"/suites", body)
	if code != http.StatusBadRequest {
		t.Fatalf("invalid spec = %d, want 400 (body %s)", code, data)
	}
	var resp struct {
		Error  string `json:"error"`
		Fields []struct {
			Field string `json:"field"`
			Msg   string `json:"msg"`
		} `json:"fields"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("decoding 400 body %q: %v", data, err)
	}
	if len(resp.Fields) != 2 {
		t.Fatalf("400 names %d fields, want 2: %s", len(resp.Fields), data)
	}
	if resp.Fields[0].Field != "cases[0].spec.allocator" {
		t.Errorf("field path = %q, want cases[0].spec.allocator", resp.Fields[0].Field)
	}
	if resp.Fields[1].Field != "cases[0].spec.injection_rate" {
		t.Errorf("field path = %q, want cases[0].spec.injection_rate", resp.Fields[1].Field)
	}

	// Geometries a pattern or an allocator is not defined on used to pass
	// validation and panic on a runner goroutine; they are 400s too.
	for spec, field := range map[string]string{
		`{"width": 1, "height": 1}`:                         "cases[0].spec.width",
		`{"pattern": "transpose", "width": 2, "height": 3}`: "cases[0].spec.pattern",
		`{"pattern": "bitrev", "width": 3}`:                 "cases[0].spec.pattern",
		`{"pattern": "shuffle", "width": 3}`:                "cases[0].spec.pattern",
		`{"vcs": 65}`:                                       "cases[0].spec.vcs",
		`{"allocator": "ideal"}`:                            "cases[0].spec.allocator",
		`{"allocator": "sparoflo", "virtual_inputs": 2}`:    "cases[0].spec.allocator",
		// These two used to be admitted with 202 and fail, or measure
		// nothing, in the runner.
		`{"injection_rate": 0}`: "cases[0].spec.injection_rate",
		`{"measure": 0}`:        "cases[0].spec.measure",
		// A network whose build would exhaust the server's memory, and no
		// spec object at all.
		`{"width": 16000}`: "cases[0].spec.width",
		`null`:             "cases[0].spec",
	} {
		code, data := post(t, ts.URL+"/suites", `{"cases": [{"spec": `+spec+`}], "close": true}`)
		resp.Fields = nil
		if err := json.Unmarshal(data, &resp); code != http.StatusBadRequest || err != nil ||
			len(resp.Fields) != 1 || resp.Fields[0].Field != field {
			t.Errorf("spec %s = %d %s, want 400 naming only %s", spec, code, data, field)
		}
	}
	if code, _ := get(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("GET /healthz after the refused specs = %d, want 200", code)
	}

	// Unknown JSON fields in a spec are typos, not silently ignored, and a
	// body is one JSON value: whatever follows it is not dropped unread.
	for _, body := range []string{
		`{"cases": [{"spec": {"allocator": "if", "virtual_imputs": 2}}]}`,
		`{"name": "first"} {"name": "second"}`,
		`{"name": "first"} garbage`,
	} {
		if code, data = post(t, ts.URL+"/suites", body); code != http.StatusBadRequest {
			t.Errorf("POST /suites %s = %d, want 400 (body %s)", body, code, data)
		}
	}
	// A validation failure admits nothing: no suite was created.
	if code, _ := get(t, ts.URL+"/suites/s3", nil); code != http.StatusNotFound {
		t.Errorf("failed submissions must not leave suites behind; GET s3 = %d", code)
	}
}

// TestOversizedBody pins the body cap on both POST decoders: a body over
// 4 MiB is a 413 in the usual error shape, it neither kills nor wedges
// the server, and nothing of it is admitted — the next normal POST to
// the same suite is.
func TestOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})

	huge := `{"name": "` + strings.Repeat("x", 4<<20) + `"}`
	code, data := post(t, ts.URL+"/suites", huge)
	var resp struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &resp); code != http.StatusRequestEntityTooLarge || err != nil || resp.Error == "" {
		t.Fatalf("oversized POST /suites = %d %s, want 413 with an error body", code, data)
	}
	if code, _ := get(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("GET /healthz after an oversized POST = %d, want 200", code)
	}

	// The refused body created nothing: the next suite is the first.
	if suite := postGrid(t, ts.URL, `{"name": "open"}`); suite != "s1" {
		t.Fatalf("suite after a refused POST = %q, want s1", suite)
	}
	if code, data = post(t, ts.URL+"/suites/s1/cases", huge); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized POST cases = %d, want 413 (body %s)", code, data)
	}
	code, data = post(t, ts.URL+"/suites/s1/cases", fmt.Sprintf(`{"spec": %s, "close": true}`, smallSpec(5)))
	if code != http.StatusCreated {
		t.Fatalf("normal POST cases after an oversized one = %d, want 201 (body %s)", code, data)
	}
	if lines := nonEmptyLines(streamResults(t, ts.URL, "s1")); len(lines) != 1 {
		t.Errorf("stream has %d lines, want the one admitted case", len(lines))
	}
}

// TestQuota drives the token bucket with an injected clock: a client
// that exhausts its burst gets 429 with a Retry-After hint and is
// re-admitted once the bucket refills.
func TestQuota(t *testing.T) {
	var now int64
	_, ts := newTestServer(t, service.Config{
		QuotaRate:  1, // one case per second
		QuotaBurst: 2,
		Now:        func() int64 { return now },
	})

	one := func(client string, seed uint64) (int, []byte, http.Header) {
		req, err := http.NewRequest("POST", ts.URL+"/suites",
			strings.NewReader(fmt.Sprintf(`{"cases": [{"spec": %s}], "close": true}`, smallSpec(seed))))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Vix-Client", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data, resp.Header
	}

	// Burst of 2 admits two cases, rejects the third.
	for i := 0; i < 2; i++ {
		if code, data, _ := one("alice", uint64(20+i)); code != http.StatusCreated {
			t.Fatalf("submission %d = %d, want 201 (body %s)", i, code, data)
		}
	}
	code, data, hdr := one("alice", 22)
	if code != http.StatusTooManyRequests {
		t.Fatalf("third submission = %d, want 429 (body %s)", code, data)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 response has no Retry-After header")
	}

	// Another client has its own bucket.
	if code, data, _ := one("bob", 23); code != http.StatusCreated {
		t.Errorf("other client = %d, want 201 (body %s)", code, data)
	}

	// One refill second re-admits alice.
	now += 1e9
	if code, data, _ := one("alice", 24); code != http.StatusCreated {
		t.Errorf("after refill = %d, want 201 (body %s)", code, data)
	}
}

// TestRetryAfterOfATinyRate: at 1e-20 cases per second a second case
// waits 1e20 s, past what an int holds, so the hint must be clamped
// before it is converted: to math.MaxInt32 seconds, not to an overflowed
// negative count that the 1 s floor would turn into "retry after 1s".
func TestRetryAfterOfATinyRate(t *testing.T) {
	_, ts := newTestServer(t, service.Config{QuotaRate: 1e-20, Now: func() int64 { return 0 }})
	body := fmt.Sprintf(`{"cases": [{"spec": %s}], "close": true}`, smallSpec(1))
	if code, data := post(t, ts.URL+"/suites", body); code != http.StatusCreated {
		t.Fatalf("first case = %d, want 201 (body %s)", code, data)
	}
	resp, err := http.Post(ts.URL+"/suites", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := strconv.Itoa(math.MaxInt32)
	if got := resp.Header.Get("Retry-After"); resp.StatusCode != http.StatusTooManyRequests || got != want {
		t.Errorf("second case = %d with Retry-After %q, want 429 with %s", resp.StatusCode, got, want)
	}
	if !strings.Contains(string(data), "retry after "+want+"s") {
		t.Errorf("429 body %s does not name the clamped wait", data)
	}
}

// TestSSEStream exercises the event-stream flavour of /results: same
// payloads framed as SSE events, terminated by a done event.
func TestSSEStream(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	suite := postGrid(t, ts.URL, gridBody())

	code, body := get(t, ts.URL+"/suites/"+suite+"/results", map[string]string{"Accept": "text/event-stream"})
	if code != http.StatusOK {
		t.Fatalf("SSE GET = %d", code)
	}
	text := string(body)
	if got := strings.Count(text, "event: result\n"); got != 2 {
		t.Errorf("SSE stream has %d result events, want 2:\n%s", got, text)
	}
	if !strings.Contains(text, "event: done\n") {
		t.Errorf("SSE stream has no done event:\n%s", text)
	}
}

// TestStatusAndStats covers the observation endpoints: suite status
// reports per-case provenance, /statsz mirrors store accounting, and
// /healthz answers.
func TestStatusAndStats(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	suite := postGrid(t, ts.URL, gridBody())
	streamResults(t, ts.URL, suite) // wait for completion

	code, data := get(t, ts.URL+"/suites/"+suite, nil)
	if code != http.StatusOK {
		t.Fatalf("GET suite = %d", code)
	}
	var st struct {
		Suite  string `json:"suite"`
		Closed bool   `json:"closed"`
		Done   bool   `json:"done"`
		Cases  []struct {
			Case      string `json:"case"`
			Status    string `json:"status"`
			WallNanos int64  `json:"wall_ns"`
		} `json:"cases"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decoding status %q: %v", data, err)
	}
	if !st.Closed || !st.Done || len(st.Cases) != 2 {
		t.Fatalf("status = %s, want closed+done with 2 cases", data)
	}
	for _, c := range st.Cases {
		if c.Status != "done" || c.WallNanos <= 0 {
			t.Errorf("case %s: status %q wall %d, want done with telemetry", c.Case, c.Status, c.WallNanos)
		}
	}

	code, data = get(t, ts.URL+"/statsz", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /statsz = %d", code)
	}
	var stats struct {
		Suites  int   `json:"suites"`
		Cases   int   `json:"cases"`
		Entries int   `json:"store_entries"`
		Misses  int64 `json:"store_misses"`
	}
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Suites != 1 || stats.Cases != 2 || stats.Entries != 2 || stats.Misses != 2 {
		t.Errorf("statsz = %s, want 1 suite, 2 cases, 2 entries, 2 misses", data)
	}

	if code, data = get(t, ts.URL+"/healthz", nil); code != http.StatusOK || string(data) != "ok\n" {
		t.Errorf("GET /healthz = %d %q, want 200 ok", code, data)
	}
}

// TestDrain pins the shutdown contract: Close runs every admitted case
// to completion, and open result streams terminate once the suite is
// drained even if the client never closed it.
func TestDrain(t *testing.T) {
	svc, err := service.New(service.Config{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// An OPEN suite (no close flag): its stream only ends via drain.
	body := fmt.Sprintf(`{"cases": [{"spec": %s}, {"spec": %s}]}`, smallSpec(31), smallSpec(32))
	suite := postGrid(t, ts.URL, body)

	done := make(chan []byte, 1)
	go func() {
		data, _ := streamResultsE(ts.URL, suite)
		done <- data
	}()

	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data := <-done
	if got := len(nonEmptyLines(data)); got != 2 {
		t.Errorf("drained stream has %d lines, want both admitted cases:\n%s", got, data)
	}
	if m := svc.StoreStats().Misses; m != 2 {
		t.Errorf("drain completed %d simulations, want 2", m)
	}

	// A draining server rejects new suites.
	if code, _ := post(t, ts.URL+"/suites", `{}`); code != http.StatusServiceUnavailable {
		t.Errorf("POST /suites after Close = %d, want 503", code)
	}
}

// suiteStatusOf reads GET /suites/{id}: whether the suite is done, and
// each case's status and provenance.
func suiteStatusOf(t *testing.T, base, suite string) (done bool, cases []caseView) {
	t.Helper()
	code, data := get(t, base+"/suites/"+suite, nil)
	if code != http.StatusOK {
		t.Fatalf("GET /suites/%s = %d (body %s)", suite, code, data)
	}
	var st struct {
		Done  bool       `json:"done"`
		Cases []caseView `json:"cases"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decoding status %q: %v", data, err)
	}
	return st.Done, st.Cases
}

// caseView is one case of a suite status payload.
type caseView struct {
	Status string `json:"status"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
}

// TestStoredCaseNeverQueues: a stored spec is answered at admission.
// With the only runner busy on a case that simulates for about a
// second, a stored spec posted to another suite streams its line while
// that case is still not terminal, and counts one store hit.
func TestStoredCaseNeverQueues(t *testing.T) {
	svc, ts := newTestServer(t, service.Config{Runners: 1})
	stored := streamResults(t, ts.URL, postGrid(t, ts.URL, fmt.Sprintf(`{"cases": [{"spec": %s}], "close": true}`, smallSpec(1))))

	slow := postGrid(t, ts.URL, `{"cases": [{"spec": {"width": 16, "warmup": 500, "measure": 4000, "injection_rate": 0.1}}], "close": true}`)
	again := streamResults(t, ts.URL, postGrid(t, ts.URL, fmt.Sprintf(`{"cases": [{"spec": %s}], "close": true}`, smallSpec(1))))
	if string(again) != string(stored) {
		t.Errorf("stored spec streamed differently at admission:\n--- run\n%s--- served\n%s", stored, again)
	}
	if done, cases := suiteStatusOf(t, ts.URL, slow); done || cases[0].Status == "done" || cases[0].Status == "failed" {
		t.Errorf("slow case is %q before the stored case streamed; want the stored case answered without waiting for it", cases[0].Status)
	}
	if st := svc.StoreStats(); st.Hits != 1 || st.Misses != 2 {
		t.Errorf("store counted %d hits and %d misses, want the served case as 1 hit beside 2 simulations", st.Hits, st.Misses)
	}
	streamResults(t, ts.URL, slow)
}

// TestDrainFailsStoredCases: a draining server serves nothing. Cases
// posted to an open suite after Close get 503 and are failed, even when
// their specs are stored, and count no store hit.
func TestDrainFailsStoredCases(t *testing.T) {
	svc, err := service.New(service.Config{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	streamResults(t, ts.URL, postGrid(t, ts.URL, gridBody()))
	code, data := post(t, ts.URL+"/suites", `{"name": "open"}`)
	if code != http.StatusCreated {
		t.Fatalf("POST /suites = %d (body %s)", code, data)
	}
	before := svc.StoreStats()

	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	code, data = post(t, ts.URL+"/suites/s2/cases", fmt.Sprintf(`{"cases": [{"spec": %s}, {"spec": %s}]}`, smallSpec(1), smallSpec(2)))
	if code != http.StatusServiceUnavailable {
		t.Errorf("POST stored cases after Close = %d, want 503 (body %s)", code, data)
	}
	_, cases := suiteStatusOf(t, ts.URL, "s2")
	if len(cases) != 2 {
		t.Fatalf("suite holds %d cases, want the 2 posted", len(cases))
	}
	for i, c := range cases {
		if c.Status != "failed" || c.Cached || c.Error == "" {
			t.Errorf("c%d = %+v, want failed with an error, not served", i, c)
		}
	}
	if after := svc.StoreStats(); after != before {
		t.Errorf("store stats moved from %+v to %+v; a draining server must not serve", before, after)
	}
}

// panicKind is an allocator kind whose Allocate panics: a fault inside a
// run, which the harness recovers below the store.
const panicKind = "test-panics"

type panicAllocator struct{}

func (panicAllocator) Name() string                             { return panicKind }
func (panicAllocator) Reset()                                   {}
func (panicAllocator) Allocate(*alloc.RequestSet) []alloc.Grant { panic("allocator fault on purpose") }

// registerPanicKind registers panicKind once per process.
var registerPanicKind = sync.OnceValue(func() error {
	return alloc.Register(panicKind, func(alloc.Config) (alloc.Allocator, error) { return panicAllocator{}, nil })
})

// TestRunnerPanicFailsOnlyItsCase: a case whose run panics streams as
// failed with the panic's text, its sibling completes, the server stays
// healthy, and nothing is stored for the failed spec, so POSTing it again
// runs it again: a store miss, not a hit.
func TestRunnerPanicFailsOnlyItsCase(t *testing.T) {
	if err := registerPanicKind(); err != nil {
		t.Fatal(err)
	}
	svc, ts := newTestServer(t, service.Config{Runners: 2})
	faulty := fmt.Sprintf(`{"spec": {"warmup": 20, "measure": 60, "injection_rate": 0.02, "allocator": %q}}`, panicKind)
	lines := func(body string) []resultLine {
		var out []resultLine
		for _, ln := range nonEmptyLines(streamResults(t, ts.URL, postGrid(t, ts.URL, body))) {
			var r resultLine
			if err := json.Unmarshal([]byte(ln), &r); err != nil {
				t.Fatalf("result line %q: %v", ln, err)
			}
			out = append(out, r)
		}
		return out
	}
	got := lines(fmt.Sprintf(`{"cases": [%s, {"spec": %s}], "close": true}`, faulty, smallSpec(1)))
	if len(got) != 2 || got[0].Status != "failed" || !strings.Contains(got[0].Error, "allocator fault on purpose") {
		t.Fatalf("faulty case streamed %+v, want failed with the panic's text", got)
	}
	if got[1].Status != "done" {
		t.Errorf("sibling case streamed %+v, want done", got[1])
	}
	if code, _ := get(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("GET /healthz after a runner panic = %d, want 200", code)
	}
	before := svc.StoreStats()
	if again := lines(fmt.Sprintf(`{"cases": [%s], "close": true}`, faulty)); len(again) != 1 || again[0].Status != "failed" {
		t.Errorf("re-POSTed faulty case streamed %+v, want failed again", again)
	}
	if after := svc.StoreStats(); after.Misses != before.Misses+1 || after.Hits != before.Hits {
		t.Errorf("re-POST moved store stats from %+v to %+v, want one more miss and no hit", before, after)
	}
}

// resultLine is one line of a result stream.
type resultLine struct {
	Status string `json:"status"`
	Error  string `json:"error"`
}

// TestWorkersIsRetired: Config.Workers survives only as 0 or 1, the
// values that meant a serial tick; any other width is refused by name.
func TestWorkersIsRetired(t *testing.T) {
	for _, w := range []int{0, 1} {
		svc, err := service.New(service.Config{Runners: 1, Workers: w})
		if err != nil {
			t.Fatalf("Workers %d: %v", w, err)
		}
		if err := svc.Close(); err != nil {
			t.Fatalf("Workers %d: Close: %v", w, err)
		}
	}
	for _, w := range []int{2, -1} {
		if svc, err := service.New(service.Config{Runners: 1, Workers: w}); err == nil || !strings.Contains(err.Error(), "Workers") {
			if svc != nil {
				svc.Close()
			}
			t.Errorf("Workers %d: New error = %v, want one naming the retired field", w, err)
		}
	}
}

// TestNaNQuotaIsRefused: a NaN rate or burst would refuse every case
// forever (the bucket never holds a token and the retry hint is NaN), so
// New refuses it by name.
func TestNaNQuotaIsRefused(t *testing.T) {
	nan := math.NaN()
	for _, cfg := range []service.Config{
		{Runners: 1, QuotaRate: nan},
		{Runners: 1, QuotaRate: 1, QuotaBurst: nan},
		{Runners: 1, QuotaBurst: nan},
	} {
		cfg.Now = func() int64 { return 0 }
		if svc, err := service.New(cfg); err == nil || !strings.Contains(err.Error(), "Quota") {
			if svc != nil {
				svc.Close()
			}
			t.Errorf("QuotaRate %v, QuotaBurst %v: New error = %v, want one naming the quota", cfg.QuotaRate, cfg.QuotaBurst, err)
		}
	}
}

// nonEmptyLines splits a JSONL body.
func nonEmptyLines(b []byte) []string {
	var out []string
	for _, ln := range strings.Split(string(b), "\n") {
		if strings.TrimSpace(ln) != "" {
			out = append(out, ln)
		}
	}
	return out
}
