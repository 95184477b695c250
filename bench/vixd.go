package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"vix/internal/config"
	"vix/internal/service"
	"vix/internal/sim"
	"vix/internal/topology"
)

// The vixd workloads drive an in-process service.Server behind a loopback
// httptest.Server in a closed loop: two clients, each posting to
// /suites/{id}/cases and waiting for the result lines on the suite's JSONL
// stream before posting again. A cold operation is one new case; a warm
// operation is one round of the grid (24 stored cases) in one POST, which
// puts service and store work, not the HTTP round trip, in charge of its
// time. A client holds two connections, one kept alive for its posts and
// one per open result stream.
const (
	vixdClients = 2
	vixdRunners = 2
	gridSize    = 24 // specs per round of the case grid
)

// vixdSpec sizes the two vixd workloads.
type vixdSpec struct {
	warm bool // replay stored cases instead of simulating new ones
	// rounds of the 24-spec grid: posted in the cold workload's measured
	// phase (set from -seconds), stored at the warm workload's set-up.
	rounds int
	// replays is how often each warm client replays every stored case,
	// each time into a fresh suite (set from -seconds).
	replays int
	warmup  int // cycles per case
	measure int
}

func (v vixdSpec) scaled(div int) vixdSpec {
	v.rounds = max(v.rounds/min(div, 5), 1)
	v.replays = max(v.replays/div, 1)
	v.warmup = max(v.warmup/div, 10)
	v.measure = max(v.measure/div, 10)
	return v
}

// caseGrid is one round of the vixd case grid: four allocation schemes by
// six offered loads on the 8x8 mesh. Each spec's seed is derived from the
// run's seed and the spec's labels, so every round is 24 new specs.
func caseGrid(seed uint64, round, warmup, measure int) []config.Experiment {
	type scheme struct {
		kind string
		k    int
	}
	schemes := []scheme{{"if", 1}, {"wavefront", 1}, {"ap", 1}, {"if", 2}}
	rates := []float64{0.01, 0.03, 0.05, 0.07, 0.09, 0}
	var out []config.Experiment
	for _, sc := range schemes {
		for _, rate := range rates {
			e := config.Default()
			e.Allocator, e.VirtualInputs = sc.kind, sc.k
			e.InjectionRate, e.MaxInjection = rate, rate == 0
			e.Warmup, e.Measure = warmup, measure
			e.Seed = sim.DeriveSeed(seed, "vixd", fmt.Sprint(round), sc.kind, fmt.Sprint(sc.k), fmt.Sprint(rate))
			out = append(out, e)
		}
	}
	return out
}

// opBodies generates the suite: the POST body of every operation over the
// given rounds, encoded before any clock starts. A cold body holds one
// case, a warm body a whole round.
func opBodies(seed uint64, v vixdSpec) ([][]byte, error) {
	type caseReq struct {
		Spec config.Experiment `json:"spec"`
	}
	var out [][]byte
	for round := 0; round < v.rounds; round++ {
		var batch []caseReq
		for _, e := range caseGrid(seed, round, v.warmup, v.measure) {
			batch = append(batch, caseReq{e})
		}
		if v.warm {
			b, err := json.Marshal(struct {
				Cases []caseReq `json:"cases"`
			}{batch})
			if err != nil {
				return nil, err
			}
			out = append(out, b)
			continue
		}
		for _, c := range batch {
			b, err := json.Marshal(c)
			if err != nil {
				return nil, err
			}
			out = append(out, b)
		}
	}
	return out, nil
}

// casesPerOp is how many cases one operation posts.
func (v vixdSpec) casesPerOp() int {
	if v.warm {
		return gridSize
	}
	return 1
}

// vixd is one running server with its store file in a private directory.
type vixd struct {
	dir string
	srv *service.Server
	ts  *httptest.Server
}

// startVixd starts a server with quotas off over an empty store in a fresh
// directory under outDir, which close removes again.
func startVixd(outDir string) (*vixd, error) {
	dir, err := os.MkdirTemp(outDir, "vixd-")
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Config{
		StorePath: filepath.Join(dir, "store.jsonl"),
		Runners:   vixdRunners,
		Workers:   1,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &vixd{dir: dir, srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

// close stops the HTTP server, drains the service and removes the store.
func (v *vixd) close() error {
	v.ts.Close()
	err := v.srv.Close()
	if rerr := os.RemoveAll(v.dir); err == nil {
		err = rerr
	}
	return err
}

// storeBytes is the size of the store file.
func (v *vixd) storeBytes() int64 {
	fi, err := os.Stat(filepath.Join(v.dir, "store.jsonl"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// statsz mirrors the fields of GET /statsz the checks read.
type statsz struct {
	Hits   int64 `json:"store_hits"`
	Misses int64 `json:"store_misses"`
	Dedup  int64 `json:"store_inflight_dedup"`
	Served int64 `json:"store_served"`
}

func (v *vixd) statsz() (statsz, error) {
	var st statsz
	resp, err := v.ts.Client().Get(v.ts.URL + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// opTiming is one operation as its client saw it. Results are checked as
// they arrive and not kept, so that what the benchmark itself holds when
// live_heap_mb is read does not grow with the number of cases.
type opTiming struct {
	req      string // "s3/c17": suite and first case, shared by the operation's spans
	cases    int    // result lines read
	notDone  int    // of them, cases that did not end "done"
	postNS   int64  // POST sent -> 201 read
	totalNS  int64  // POST sent -> last result line read
	bad      string // first failed check: refused, a case not done, wrong bytes
	rejected bool   // refused with 429
}

// accept checks one "done" result, by the store id of its spec, and
// returns what is wrong with it, if anything.
type accept func(id string, value []byte) string

// client is one closed-loop caller. Every request it sends ends when ctx
// does, so an interrupted run unwinds instead of waiting on a stream.
type client struct {
	ctx  context.Context
	base string
	hc   *http.Client
	rec  *spanRecorder
}

func newClient(ctx context.Context, base string, rec *spanRecorder) *client {
	return &client{ctx: ctx, base: base, hc: &http.Client{Transport: &http.Transport{}}, rec: rec}
}

// send issues one request under the client's context.
func (c *client) send(method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(c.ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.hc.Do(req)
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// suiteConn is an open suite with its result stream.
type suiteConn struct {
	c      *client
	id     string
	stream *http.Response
	lines  *bufio.Reader
	cases  int
}

func (c *client) postJSON(path string, body []byte, out any) (int, error) {
	resp, err := c.send(http.MethodPost, path, body)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// openSuite creates a suite. Its result stream is opened by the first
// case: the server sends the stream's headers with the first line, so a
// client that asked earlier would wait for them with nothing posted.
func (c *client) openSuite(name string) (*suiteConn, error) {
	var created struct {
		Suite string `json:"suite"`
	}
	code, err := c.postJSON("/suites", []byte(fmt.Sprintf(`{"name":%q}`, name)), &created)
	if err != nil {
		return nil, err
	}
	if code != http.StatusCreated {
		return nil, fmt.Errorf("vixbench: POST /suites: status %d", code)
	}
	return &suiteConn{c: c, id: created.Suite}, nil
}

func (s *suiteConn) openStream() error {
	resp, err := s.c.send(http.MethodGet, "/suites/"+s.id+"/results", nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("vixbench: GET results of %s: status %d", s.id, resp.StatusCode)
	}
	s.stream, s.lines = resp, bufio.NewReader(resp.Body)
	return nil
}

// abandon drops the result stream on an error path.
func (s *suiteConn) abandon() {
	if s.stream != nil {
		s.stream.Body.Close()
	}
}

// do posts one operation of n cases, waits for their result lines and
// then hands every result to ok.
func (s *suiteConn) do(body []byte, n int, ok accept) (opTiming, error) {
	t := opTiming{req: fmt.Sprintf("%s/c%d", s.id, s.cases)}
	whole := s.c.rec.begin("client.op", t.req, 0)
	defer s.c.rec.end(whole)
	post := s.c.rec.begin("client.post", t.req, whole)
	start := time.Now()
	code, err := s.c.postJSON("/suites/"+s.id+"/cases", body, nil)
	t.postNS = int64(time.Since(start))
	s.c.rec.end(post)
	if err != nil {
		return t, err
	}
	if code != http.StatusCreated {
		t.rejected = code == http.StatusTooManyRequests
		t.bad = fmt.Sprintf("http %d", code)
		return t, nil
	}
	wait := s.c.rec.begin("client.wait", t.req, whole)
	defer s.c.rec.end(wait)
	if s.stream == nil {
		if err := s.openStream(); err != nil {
			return t, err
		}
	}
	lines := make([][]byte, n)
	for i := range lines {
		if lines[i], err = s.lines.ReadBytes('\n'); err != nil {
			return t, fmt.Errorf("vixbench: result stream of %s: %w", t.req, err)
		}
	}
	t.totalNS = int64(time.Since(start))
	for _, line := range lines {
		var res struct {
			ID     string          `json:"id"`
			Status string          `json:"status"`
			Value  json.RawMessage `json:"value"`
		}
		if err := json.Unmarshal(line, &res); err != nil {
			return t, fmt.Errorf("vixbench: result line of %s: %w", t.req, err)
		}
		msg := ""
		if res.Status != "done" {
			t.notDone++
			msg = fmt.Sprintf("case c%d ended %q", s.cases, res.Status)
		} else if why := ok(res.ID, res.Value); why != "" {
			msg = fmt.Sprintf("case c%d: %s", s.cases, why)
		}
		if t.bad == "" {
			t.bad = msg
		}
		t.cases++
		s.cases++
	}
	return t, nil
}

// wallNanos reads the cases' own run times from GET /suites/{id}.
func (s *suiteConn) wallNanos() (map[string]int64, error) {
	resp, err := s.c.send(http.MethodGet, "/suites/"+s.id, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st struct {
		Cases []struct {
			Case      string `json:"case"`
			WallNanos int64  `json:"wall_ns"`
		} `json:"cases"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(st.Cases))
	for _, c := range st.Cases {
		out[s.id+"/"+c.Case] = c.WallNanos
	}
	return out, nil
}

// close closes the suite, which ends its stream, and reads the stream out.
func (s *suiteConn) close() error {
	defer s.abandon()
	code, err := s.c.postJSON("/suites/"+s.id+"/close", nil, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("vixbench: closing %s: status %d", s.id, code)
	}
	if s.stream == nil {
		return nil
	}
	_, err = io.Copy(io.Discard, s.lines)
	return err
}

// phase is what one client, or all of them together, measured over one
// cold or warm phase.
type phase struct {
	timings []opTiming
	values  map[string][]byte // new cases: spec id -> the result served
	wallNS  int64
	wallOf  map[string]int64 // req -> the case's own run time (traced runs)
}

// runClients runs one phase: every client calls work with its index and
// its own client; the phase's wall time runs from a common start to the
// last client's return.
func runClients(ctx context.Context, base string, rec *spanRecorder, work func(ctx context.Context, ci int, c *client, out *phase) error) (*phase, error) {
	parts := make([]phase, vixdClients)
	errs := make([]error, vixdClients)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < vixdClients; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(ctx, base, rec)
			defer c.close()
			errs[ci] = work(ctx, ci, c, &parts[ci])
		}()
	}
	wg.Wait()
	total := &phase{wallNS: int64(time.Since(start)), values: map[string][]byte{}, wallOf: map[string]int64{}}
	for ci := range parts {
		if errs[ci] != nil {
			return nil, errs[ci]
		}
		total.timings = append(total.timings, parts[ci].timings...)
		for k, v := range parts[ci].values {
			total.values[k] = v
		}
		for k, v := range parts[ci].wallOf {
			total.wallOf[k] = v
		}
	}
	return total, nil
}

// postShared has the clients share one list of operations: each takes the
// next unposted one when its previous one is done, into its own suite, and
// keeps the result of every case. That every case was a new spec shows in
// /statsz, as one miss each.
func postShared(bodies [][]byte, n int, traced bool) func(context.Context, int, *client, *phase) error {
	var next atomic.Int64
	return func(ctx context.Context, ci int, c *client, out *phase) error {
		su, err := c.openSuite(fmt.Sprintf("client-%d", ci))
		if err != nil {
			return err
		}
		out.values = map[string][]byte{}
		keep := func(id string, value []byte) string {
			out.values[id] = value
			return ""
		}
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= len(bodies) {
				break
			}
			t, err := su.do(bodies[i], n, keep)
			if err != nil {
				su.abandon()
				return err
			}
			out.timings = append(out.timings, t)
		}
		if traced {
			if out.wallOf, err = su.wallNanos(); err != nil {
				su.abandon()
				return err
			}
		}
		if err := su.close(); err != nil {
			return err
		}
		return ctx.Err()
	}
}

// replayAll has every client replay the whole list, replays times, each
// time into a fresh suite, comparing every result with the stored bytes.
func replayAll(bodies [][]byte, n, replays int, stored map[string][]byte) func(context.Context, int, *client, *phase) error {
	same := func(id string, value []byte) string {
		if !bytes.Equal(value, stored[id]) {
			return "replayed result differs from the stored one"
		}
		return ""
	}
	return func(ctx context.Context, ci int, c *client, out *phase) error {
		for r := 0; r < replays; r++ {
			su, err := c.openSuite(fmt.Sprintf("client-%d-replay-%d", ci, r))
			if err != nil {
				return err
			}
			for _, b := range bodies {
				if err := ctx.Err(); err != nil {
					su.abandon()
					return err
				}
				t, err := su.do(b, n, same)
				if err != nil {
					su.abandon()
					return err
				}
				out.timings = append(out.timings, t)
			}
			if err := su.close(); err != nil {
				return err
			}
		}
		return nil
	}
}

// vixdPass is one cold or warm pass with its set-ups.
type vixdPass struct {
	setupNS   []int64
	ph        *phase            // the measured phase
	stored    map[string][]byte // warm: spec id -> result stored at set-up
	before    statsz            // counters when the measured phase began
	after     statsz
	heapBytes uint64
	fileBytes int64
}

// runVixdPass sets the server up several times (keeping the last: see
// moreSetups), runs the measured phase and reads the counters. Set-up is
// server start plus suite generation and, for the warm workload, storing
// every case once so that the measured phase only replays.
func runVixdPass(ctx context.Context, v vixdSpec, seed uint64, o runOpts, setupRepeats int, rec *spanRecorder) (p *vixdPass, err error) {
	p = &vixdPass{}
	var srv *vixd
	var bodies [][]byte
	defer func() {
		if srv != nil {
			if cerr := srv.close(); err == nil {
				err = cerr
			}
		}
	}()
	for spent := int64(0); moreSetups(len(p.setupNS), spent, setupRepeats); spent += p.setupNS[len(p.setupNS)-1] {
		if srv != nil {
			if err := srv.close(); err != nil {
				return nil, err
			}
			srv = nil
		}
		sp := rec.begin("setup", "", 0)
		start := time.Now()
		if srv, err = startVixd(o.outDir); err != nil {
			return nil, err
		}
		if bodies, err = opBodies(seed, v); err != nil {
			return nil, err
		}
		if v.warm {
			fill, err := runClients(ctx, srv.ts.URL, nil, postShared(bodies, v.casesPerOp(), false))
			if err != nil {
				return nil, err
			}
			p.stored = fill.values
		}
		p.setupNS = append(p.setupNS, int64(time.Since(start)))
		rec.end(sp)
	}
	if p.before, err = srv.statsz(); err != nil {
		return nil, err
	}
	if o.profile != nil {
		stop, err := o.profile()
		if err != nil {
			return nil, err
		}
		defer stop()
	}
	work := postShared(bodies, v.casesPerOp(), rec != nil)
	if v.warm {
		work = replayAll(bodies, v.casesPerOp(), v.replays, p.stored)
	}
	if p.ph, err = runClients(ctx, srv.ts.URL, rec, work); err != nil {
		return nil, err
	}
	if p.after, err = srv.statsz(); err != nil {
		return nil, err
	}
	p.fileBytes = srv.storeBytes()
	p.heapBytes = liveHeap()
	return p, nil
}

// served returns what the clients were served, each spec once: the new
// results of a cold phase, or the stored ones every warm result was
// compared with.
func (p *vixdPass) served() map[string][]byte {
	if p.stored != nil {
		return p.stored
	}
	return p.ph.values
}

// cases counts the cases of the measured phase.
func (p *vixdPass) cases() int {
	n := 0
	for _, t := range p.ph.timings {
		n += t.cases
	}
	return n
}

// check books one failed operation per operation with a failed check (it
// was refused, a case did not end "done", or replayed bytes differ from
// the stored ones) and per counter that is off. It returns the digest of
// what was served, each spec once.
func (p *vixdPass) check(v vixdSpec, r *report) (digest string) {
	r.Attempted += len(p.ph.timings)
	for _, t := range p.ph.timings {
		if t.bad != "" {
			r.fail(fmt.Sprintf("operation %s: %s", t.req, t.bad))
		}
	}
	n := int64(p.cases())
	misses, served := p.after.Misses-p.before.Misses, p.after.Served-p.before.Served
	if v.warm {
		if want := int64(v.rounds * gridSize); p.before.Misses != want || int64(len(p.stored)) != want {
			r.fail(fmt.Sprintf("/statsz shows %d misses and %d results came back after storing %d cases", p.before.Misses, len(p.stored), want))
		}
		if misses != 0 || served != n {
			r.fail(fmt.Sprintf("/statsz shows %d misses and %d served over %d replayed cases", misses, served, n))
		}
	} else if misses != n || served != 0 || int64(len(p.ph.values)) != n {
		r.fail(fmt.Sprintf("/statsz shows %d misses and %d served, and %d distinct results came back, over %d new cases", misses, served, len(p.ph.values), n))
	}
	values := p.served()
	h := sha256.New()
	for _, id := range sim.SortedKeys(values) {
		fmt.Fprintf(h, "%s %s\n", id, values[id])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runVixd runs a vixd workload. The traced run repeats the untraced one
// with spans around both halves of every operation and reads the cases'
// own run times afterwards; their ratio is the cost of tracing.
func runVixd(ctx context.Context, v vixdSpec, seed uint64, r *report, o runOpts) (digest string, err error) {
	if !o.traced {
		p, err := runVixdPass(ctx, v, seed, o, minSetups, nil)
		if err != nil {
			return "", err
		}
		p.endToEnd(r)
		return p.check(v, r), nil
	}
	plain, err := runVixdPass(ctx, v, seed, o, 1, nil)
	if err != nil {
		return "", err
	}
	digest = plain.check(v, r)
	o.profile = nil
	traced, err := runVixdPass(ctx, v, seed, o, 1, r.spans)
	if err != nil {
		return "", err
	}
	if traced.check(v, r) != digest {
		r.fail("traced and untraced passes were served different results")
	}

	// The contract has every traced run print every per-layer row, so the
	// kernel rows, which no clock outside the service can take from it,
	// come from a direct replay of the grid's VIX saturation case.
	ref := simSpec{
		topo: topology.KindMesh, w: 8, h: 8, allocKind: "if", k: 2, policy: "balanced",
		warmup: v.warmup, window: v.measure,
	}
	o.windows = 3
	if _, err := kernelLayers(ctx, ref, seed, r, o); err != nil {
		return "", err
	}
	if err := serviceLayers(seed, r, o); err != nil {
		return "", err
	}
	r.Metrics["trace.overhead_pct"] = exact((median(traced.latenciesMS())/median(plain.latenciesMS())-1)*100, "%")
	traced.layers(v, r)
	return digest, nil
}

func (p *vixdPass) latenciesMS() []float64 {
	out := make([]float64, len(p.ph.timings))
	for i, t := range p.ph.timings {
		out[i] = float64(t.totalNS) / 1e6
	}
	return out
}

// casesPerS is the phase's throughput, both clients together.
func (p *vixdPass) casesPerS() sample {
	return exact(float64(p.cases())/(float64(p.ph.wallNS)/1e9), "1/s")
}

// endToEnd fills the end-to-end metrics of an untraced pass.
func (p *vixdPass) endToEnd(r *report) {
	var setup []float64
	for _, ns := range p.setupNS {
		setup = append(setup, float64(ns)/1e9)
	}
	var thr, lat float64
	values := p.served()
	for _, id := range sim.SortedKeys(values) {
		var val struct {
			Latency    float64 `json:"avg_latency"`
			Throughput float64 `json:"throughput_flits"`
		}
		if err := json.Unmarshal(values[id], &val); err != nil {
			r.fail(fmt.Sprintf("result of spec %s does not parse: %v", id, err))
		}
		thr += val.Throughput
		lat += val.Latency
	}
	r.Metrics["setup_s"] = summarize(setup, "s")
	r.Metrics["op_p50_ms"] = summarize(p.latenciesMS(), "ms")
	r.Metrics["live_heap_mb"] = exact(float64(p.heapBytes)/(1<<20), "MB")
	r.Metrics["sim_throughput_flits_node_cycle"] = exact(thr/float64(len(values)), "flits/node/cyc")
	r.Metrics["sim_latency_cycles_mean"] = exact(lat/float64(len(values)), "cyc")
	r.Extra["service.cases_per_s"] = p.casesPerS()
}

// layers fills the service-side rows only a vixd workload can measure.
func (p *vixdPass) layers(v vixdSpec, r *report) {
	var post, own, queue, stream []float64
	var rejected, failed int
	for _, t := range p.ph.timings {
		if t.rejected {
			rejected++
		}
		if t.cases == 0 { // refused
			continue
		}
		failed += t.notDone
		post = append(post, float64(t.postNS)/1e6)
		stream = append(stream, float64(t.totalNS-t.postNS)/1e6)
		if w, ok := p.ph.wallOf[t.req]; ok {
			own = append(own, float64(w)/1e6)
			queue = append(queue, float64(t.totalNS-w)/1e6)
		}
	}
	lat := p.latenciesMS()
	n := float64(p.cases())
	hits := p.after.Hits - p.before.Hits
	x := r.Extra
	x["service.cases_per_s"] = p.casesPerS()
	x["service.post_ms_p50"] = summarize(post, "ms")
	x["service.rejected"] = exact(float64(rejected), "count")
	x["service.failed"] = exact(float64(failed), "count")
	x["store.hits"] = exact(float64(hits), "count")
	x["store.misses"] = exact(float64(p.after.Misses-p.before.Misses), "count")
	x["store.inflight_dedup"] = exact(float64(p.after.Dedup-p.before.Dedup), "count")
	x["store.hit_share"] = exact(ratio(float64(hits), n), "ratio")
	x["store.file_bytes"] = exact(float64(p.fileBytes), "B")
	if v.warm {
		x["service.stream_ms_p50"] = summarize(stream, "ms")
		x["service.warm_p99_ms"] = exact(percentile(lat, 99), "ms")
		return
	}
	x["service.cold_p90_ms"] = exact(percentile(lat, 90), "ms")
	x["service.queue_ms_p50"] = summarize(queue, "ms")
	x["harness.job_wall_ms_p50"] = summarize(own, "ms")
}
