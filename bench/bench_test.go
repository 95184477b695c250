package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"vix/internal/alloc"
	"vix/internal/network"
	"vix/internal/router"
	"vix/internal/topology"
)

// testDiv runs every workload at about 1/100 of its size.
const testDiv = 100

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestContractMatchesTables keeps BENCHMARK.json and the tables the
// program reports from in step, and both inside the contract's limits.
func TestContractMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if got, want := strings.Join(b.Command, " "), "go run ./bench"; got != want {
		t.Errorf("command = %q, want %q", got, want)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}

	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.name)
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program has %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if g := b.EndToEnd[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, g, d)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program has %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if g := b.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, g, d)
		}
	}
}

// TestWorkloadsAtSmallScale runs every workload untraced and traced and
// checks that each run reports exactly its table's metrics, with the
// table's units, finite, and with no failed operation.
func TestWorkloadsAtSmallScale(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				o := runOpts{seconds: 8, traced: traced, div: testDiv, outDir: t.TempDir()}
				r, err := runWorkload(context.Background(), w, 7, o)
				if err != nil {
					t.Fatal(err)
				}
				if r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("%d of %d operations failed: %v", r.Failed, r.Attempted, r.Failures)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, the table has %d", len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					s, ok := r.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s not reported", d.Name)
					case s.Unit != d.Unit:
						t.Errorf("%s reported in %q, the table says %q", d.Name, s.Unit, d.Unit)
					case math.IsNaN(s.Value) || math.IsInf(s.Value, 0):
						t.Errorf("%s = %v", d.Name, s.Value)
					case !traced && s.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, s.Value)
					}
				}
				for name, s := range r.Extra {
					if !nameRE.MatchString(name) || math.IsNaN(s.Value) {
						t.Errorf("extra metric %q = %v", name, s.Value)
					}
				}
				if r.Digest == "" {
					t.Error("no stats digest")
				}
				// The paper's effect is verified by the run regressions
				// are judged on, as one more operation.
				if _, ok := r.Extra["paper.vix_gain_pct"]; ok != (w.name == "mesh8_sat" && !traced) {
					t.Errorf("paper.vix_gain_pct reported: %v", ok)
				}
				if err := r.save(o.outDir); err != nil {
					t.Fatal(err)
				}
				if traced {
					spans, err := os.ReadFile(o.outDir + "/trace-" + w.name + ".jsonl")
					if err != nil || !bytes.Contains(spans, []byte(`"name":"setup"`)) {
						t.Errorf("span file: %v, %d bytes", err, len(spans))
					}
				}
				left, _ := os.ReadDir(o.outDir)
				for _, e := range left {
					if e.IsDir() {
						t.Errorf("temporary directory %s was left behind", e.Name())
					}
				}
			})
		}
	}
}

// TestSameSeedSameDigest: the seed is the only input, so two runs of a
// workload on one seed simulate (or serve) exactly the same thing, and
// another seed something else.
func TestSameSeedSameDigest(t *testing.T) {
	for _, w := range workloads {
		var got []string
		for _, seed := range []uint64{3, 3, 4} {
			r, err := runWorkload(context.Background(), w, seed, runOpts{seconds: 8, div: testDiv, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, r.Digest)
		}
		if got[0] != got[1] {
			t.Errorf("%s: seed 3 gave digests %s and %s", w.name, got[0], got[1])
		}
		if got[0] == got[2] {
			t.Errorf("%s: seeds 3 and 4 gave the same digest", w.name)
		}
	}
}

// rowThief is a deliberately faulty allocator: it lets its second grant
// claim the first grant's crossbar row, so one row is granted twice. The
// router never reads Grant.Row, so the simulation itself goes on — a
// literally repeated grant would pop an empty VC and panic inside
// Router.Tick before the benchmark could report anything.
type rowThief struct {
	alloc.Allocator
	alloc.IdleSkipper
}

func (f rowThief) Allocate(rs *alloc.RequestSet) []alloc.Grant {
	grants := f.Allocator.Allocate(rs)
	if len(grants) >= 2 {
		grants[1].Row = grants[0].Row
	}
	return grants
}

const thiefKind alloc.Kind = "row-thief"

func init() {
	err := alloc.Register(thiefKind, func(cfg alloc.Config) (alloc.Allocator, error) {
		inner := alloc.NewSeparableIF(cfg)
		return rowThief{inner, inner}, nil
	})
	if err == nil {
		err = registerTraced(thiefKind)
	}
	if err != nil {
		panic(err)
	}
}

// TestFaultyAllocatorIsReported: an illegal allocation must come out as
// failed operations, "correct": false and a non-zero status.
func TestFaultyAllocatorIsReported(t *testing.T) {
	faulty := workload{name: "faulty", why: "test", sim: &simSpec{
		topo: topology.KindMesh, w: 4, h: 4, allocKind: thiefKind, k: 2, policy: "balanced", warmup: 1000, window: 20000}}
	workloads = append(workloads, faulty)
	defer func() { workloads = workloads[:len(workloads)-1] }()

	var out bytes.Buffer
	err := run(context.Background(), []string{"-workload", "faulty", "-trace", "1", "-seconds", "8", "-out", t.TempDir()}, &out, testDiv)
	if !errors.Is(err, errFailed) {
		t.Fatalf("run returned %v, want %v\n%s", err, errFailed, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if res.Correct || res.Failed < 1 || res.Attempted < res.Failed {
		t.Errorf("result line %+v, want correct=false and failed operations", res)
	}
	if !strings.Contains(out.String(), "illegal allocation") {
		t.Errorf("the failure is not named:\n%s", out.String())
	}

	// The same network with tracing off has nobody watching the grants.
	out.Reset()
	if err := run(context.Background(), []string{"-workload", "faulty", "-seconds", "8", "-out", t.TempDir()}, &out, testDiv); err != nil {
		t.Errorf("untraced run: %v", err)
	}
}

// TestRunRejectsBadArguments covers the command line's error paths.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-seconds", "0"},
		{"-repeat", "0"},
		{"stray"},
	} {
		if err := run(context.Background(), args, &bytes.Buffer{}, testDiv); err == nil || errors.Is(err, errFailed) {
			t.Errorf("run(%v) = %v, want a usage error", args, err)
		}
	}
}

// TestRepeatComparesRuns drives the A/A mode: two runs of one workload,
// then a table with one row per end-to-end metric.
func TestRepeatComparesRuns(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-workload", "mesh8_sat", "-repeat", "2", "-seconds", "8", "-out", t.TempDir()}, &out, testDiv)
	if err != nil && !errors.Is(err, errFailed) {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if !regexp.MustCompile(`mesh8_sat\s+` + regexp.QuoteMeta(d.Name) + `\s.*(OK|EXCEEDED)`).MatchString(out.String()) {
			t.Errorf("no A/A row for %s:\n%s", d.Name, out.String())
		}
	}
	// Simulated results repeat exactly, so their rows can never exceed.
	if regexp.MustCompile(`sim_(throughput|latency)\S*\s.*EXCEEDED`).MatchString(out.String()) {
		t.Errorf("a simulated metric differs between two runs of one seed:\n%s", out.String())
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 3, 8, 2, 9, 4, 7, 5, 6})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

// TestWrappersAreTransparent: a network built on the traced allocator
// kind and the traced pattern simulates exactly what the plain one does —
// same statistics, same ejection sequence — with the activity gate on,
// serial and sharded. Low load makes routers go idle, so SkipIdle must be
// delegated too.
func TestWrappersAreTransparent(t *testing.T) {
	for _, c := range []struct {
		kind alloc.Kind
		k    int
		rate float64
	}{
		{alloc.KindSeparableIF, 2, 0.02},
		{alloc.KindWavefront, 1, 0.01},
		{alloc.KindPacketChaining, 1, 0.03},
		{alloc.KindSeparableIF, 2, 0},
	} {
		s := simSpec{topo: topology.KindMesh, w: 6, h: 6, allocKind: c.kind, k: c.k, policy: router.PolicyBalanced, rate: c.rate}
		want := ""
		for _, traced := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				got := simulate(t, s, traced, workers)
				if want == "" {
					want = got
				}
				if got != want {
					t.Errorf("%s k=%d rate %v: traced=%v workers=%d simulated something else than the plain serial network", c.kind, c.k, c.rate, traced, workers)
				}
			}
		}
	}
}

// simulate runs 4000 cycles and hashes the snapshot and every ejection.
func simulate(t *testing.T, s simSpec, traced bool, workers int) string {
	t.Helper()
	h := sha256.New()
	pat, ej := &tracedPattern{}, newEjectChecker()
	ej.each = func(f *router.Flit) {
		fmt.Fprintln(h, f.EjectCycle, f.PacketID, f.Seq, f.Src, f.Dst, f.Hops)
	}
	drainTracedAllocs()
	cfg := s.build(11, passOpts{traced: traced, workers: workers}, pat, ej)
	cfg.OnEject = ej.onEject
	n, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.Workers() != workers {
		t.Fatalf("network runs on %d workers, want %d", n.Workers(), workers)
	}
	allocs := drainTracedAllocs()
	for c := 0; c < 4000; c++ {
		stepChecked(n, allocs)
	}
	if ej.flits == 0 || ej.disorder != 0 {
		t.Fatalf("%d flits ejected, %d out of order (%s)", ej.flits, ej.disorder, ej.first)
	}
	if traced {
		var calls int64
		for _, a := range allocs {
			calls += a.calls
			if a.invalid != nil {
				t.Fatal(a.invalid)
			}
		}
		if calls == 0 || pat.calls == 0 {
			t.Fatalf("wrappers saw %d Allocate and %d Dest calls", calls, pat.calls)
		}
	}
	fmt.Fprintf(h, "%+v", n.Collector().Snapshot())
	return fmt.Sprintf("%x", h.Sum(nil))
}
