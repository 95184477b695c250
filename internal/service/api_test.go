package service_test

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"vix/internal/service"
)

// updateAPI rewrites testdata/api.golden from the tree the test runs in.
// The committed file was written by the service as it stood before a
// case record shrank to the fields a response is built from, and pins
// every response byte to it; regenerating it from a later tree throws
// that pin away.
var updateAPI = flag.Bool("update", false, "rewrite testdata/api.golden from this tree's service")

const apiGolden = "testdata/api.golden"

// wallNanos masks the one per-run value in a suite status: a case's
// wall-clock cost. The golden keeps only whether it was reported.
var wallNanos = regexp.MustCompile(`"wall_ns":[0-9]+`)

// apiSession records every request of a scripted session and the exact
// bytes of its response.
type apiSession struct {
	t    *testing.T
	base string
	out  bytes.Buffer
}

// do sends one request and appends "METHOD path", the status code and
// the body (wall_ns masked) to the transcript.
func (a *apiSession) do(method, path, accept, body string) {
	a.t.Helper()
	req, err := http.NewRequest(method, a.base+path, strings.NewReader(body))
	if err != nil {
		a.t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		a.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		a.t.Fatalf("%s %s: reading body: %v", method, path, err)
	}
	data = wallNanos.ReplaceAll(data, []byte(`"wall_ns":"present"`))
	if accept != "" {
		accept = " (" + accept + ")"
	}
	fmt.Fprintf(&a.out, "== %s %s%s\n%d %s\n%s", method, path, accept, resp.StatusCode, resp.Header.Get("Content-Type"), data)
}

// TestAPIMatchesParent pins the bytes of every vixd response kind over
// one scripted session: named and unnamed cases, a spec repeated within
// a suite and across suites (served from the store, stored once), a 409
// on a closed suite, and cases failed by a draining server — the suite
// status (wall_ns masked to present/absent), the JSONL and SSE streams,
// /statsz and the submit responses. One runner makes the session
// deterministic: cases run in admission order, so which are cached and
// the store counters do not depend on scheduling.
func TestAPIMatchesParent(t *testing.T) {
	svc, err := service.New(service.Config{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	a := &apiSession{t: t, base: ts.URL}
	const sse = "text/event-stream"

	// s1: a one-shot grid, one named case, spec 1 twice.
	a.do("POST", "/suites", "", fmt.Sprintf(
		`{"name": "grid", "cases": [{"name": "first", "spec": %s}, {"spec": %s}, {"spec": %s}], "close": true}`,
		smallSpec(1), smallSpec(2), smallSpec(1)))
	a.do("GET", "/suites/s1/results", "", "")
	a.do("GET", "/suites/s1", "", "")

	// s2: opened empty, filled one case and one batch at a time, repeating
	// specs 2 and 1 from s1; then a 409 once it is closed.
	a.do("POST", "/suites", "", `{"name": "manual"}`)
	a.do("POST", "/suites/s2/cases", "", fmt.Sprintf(`{"name": "again", "spec": %s}`, smallSpec(2)))
	a.do("POST", "/suites/s2/cases", "", fmt.Sprintf(
		`{"cases": [{"spec": %s}, {"name": "third", "spec": %s}], "close": true}`, smallSpec(3), smallSpec(1)))
	a.do("GET", "/suites/s2/results", sse, "")
	a.do("GET", "/suites/s2/results", "", "")
	a.do("GET", "/suites/s2", "", "")
	a.do("POST", "/suites/s2/cases", "", fmt.Sprintf(`{"spec": %s}`, smallSpec(4)))
	a.do("GET", "/statsz", "", "")

	// s3: left open over a drain; cases posted to it afterwards are
	// admitted into the suite and failed, never run.
	a.do("POST", "/suites", "", `{}`)
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	a.do("POST", "/suites/s3/cases", "", fmt.Sprintf(
		`{"cases": [{"name": "late", "spec": %s}, {"spec": %s}]}`, smallSpec(5), smallSpec(1)))
	a.do("POST", "/suites", "", `{"name": "too late"}`)
	a.do("GET", "/suites/s3", "", "")
	a.do("GET", "/suites/s3/results", "", "")
	a.do("GET", "/suites/s3/results", sse, "")
	a.do("GET", "/statsz", "", "")

	got := a.out.String()
	if *updateAPI {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(apiGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(apiGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			w := "<none>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("line %d:\n got  %s\n want %s", i+1, line, w)
		}
	}
}
