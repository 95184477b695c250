package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// benchOutput is a bench run's standard output as it prints it.
const benchOutput = `== mesh8_sat  seed 1  2 s  traced false  [2 CPUs, GOMAXPROCS 2, go1.24.0, commit unknown]
  live_heap_mb                             0.514343 MB
  op_p50_ms                                 1484.34 ms             n=6  q1 1401.2  q3 1530.9
  setup_s                                  0.240561 s              n=3  q1 0.2  q3 0.25
  sim_latency_cycles_mean                   130.377 cyc
  sim_throughput_flits_node_cycle          0.458705 flits/node/cyc
  stats digest 7c01a08b027dca3f9911cce401873353e008a5a3f7884c4c86845ccd0ee5286c
  operations: 6 attempted, 0 failed
{"correct":true,"attempted":6,"failed":0,"metrics":{"live_heap_mb":{"value":0.51434326171875,"unit":"MB"},"op_p50_ms":{"value":1484.339831,"unit":"ms"},"setup_s":{"value":0.240561428,"unit":"s"},"sim_latency_cycles_mean":{"value":130.37747060346354,"unit":"cyc"},"sim_throughput_flits_node_cycle":{"value":0.4587053125,"unit":"flits/node/cyc"}}}
`

func TestParseRunReadsTheResultLineAndDigest(t *testing.T) {
	r, err := parseRun(benchOutput)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Digest != "7c01a08b027dca3f9911cce401873353e008a5a3f7884c4c86845ccd0ee5286c" {
		t.Errorf("correct %v, digest %q", r.Correct, r.Digest)
	}
	want := map[string]float64{
		"live_heap_mb": 0.51434326171875, "op_p50_ms": 1484.339831, "setup_s": 0.240561428,
		"sim_latency_cycles_mean": 130.37747060346354, "sim_throughput_flits_node_cycle": 0.4587053125,
	}
	if len(r.Metrics) != len(want) {
		t.Fatalf("metrics %v, want %v", r.Metrics, want)
	}
	for name, v := range want {
		if r.Metrics[name] != v {
			t.Errorf("%s = %v, want %v", name, r.Metrics[name], v)
		}
	}
}

// A run without a digest line (a workload that prints none) parses with
// an empty digest; a failed run reads correct false; output without a
// result line, or with a malformed one, is an error.
func TestParseRunEdgeCases(t *testing.T) {
	noDigest := strings.Replace(benchOutput, "  stats digest 7c01a08b027dca3f9911cce401873353e008a5a3f7884c4c86845ccd0ee5286c\n", "", 1)
	if r, err := parseRun(noDigest); err != nil || r.Digest != "" {
		t.Errorf("no digest line: digest %q, err %v", r.Digest, err)
	}
	failed := strings.Replace(benchOutput, `{"correct":true`, `{"correct":false`, 1)
	if r, err := parseRun(failed); err != nil || r.Correct {
		t.Errorf("failed run: correct %v, err %v", r.Correct, err)
	}
	for name, out := range map[string]string{
		"no result line": "== mesh8_sat\n  stats digest ab\n",
		"truncated":      `{"correct":true,"metrics":{"op_p50_ms":{"value":1`,
		"no metrics":     `{"correct":true}`,
		"no value":       `{"correct":true,"metrics":{"op_p50_ms":{"unit":"ms"}}}`,
	} {
		if _, err := parseRun(out); err == nil {
			t.Errorf("%s: parsed without an error", name)
		}
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 {
		t.Errorf("median of 3 1 2 = %v", m)
	}
	if xs[0] != 3 {
		t.Errorf("median sorted its argument: %v", xs)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 1 3 2 = %v", m)
	}
	// numpy.quantile([1, 2, 3, 4, 10], [0.25, 0.75]) = [2, 4]; of
	// [1, 2, 3, 4]: [1.75, 3.25].
	for _, c := range []struct {
		xs      []float64
		q, want float64
	}{
		{[]float64{10, 1, 4, 2, 3}, 0.25, 2}, {[]float64{10, 1, 4, 2, 3}, 0.75, 4},
		{[]float64{4, 3, 2, 1}, 0.25, 1.75}, {[]float64{4, 3, 2, 1}, 0.75, 3.25},
		{[]float64{7}, 0.25, 7},
	} {
		if got := quantile(c.xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
}

// The bootstrap interval is seeded: the same samples give the same
// interval, which brackets the median and lies within the samples.
func TestBootstrapCIIsSeededAndBracketsTheMedian(t *testing.T) {
	xs := []float64{-0.10, -0.08, -0.12, -0.09, -0.11, -0.07, -0.10, -0.13, -0.09, -0.10}
	lo, hi := bootstrapCI(xs, bootstrapRounds)
	lo2, hi2 := bootstrapCI(xs, bootstrapRounds)
	if lo != lo2 || hi != hi2 {
		t.Errorf("two runs gave [%v, %v] and [%v, %v]", lo, hi, lo2, hi2)
	}
	if m := median(xs); !(lo <= m && m <= hi) || lo < -0.13 || hi > -0.07 {
		t.Errorf("interval [%v, %v] for median %v of samples in [-0.13, -0.07]", lo, hi, m)
	}
	if lo, hi := bootstrapCI([]float64{0.5, 0.5, 0.5}, 100); lo != 0.5 || hi != 0.5 {
		t.Errorf("constant samples: [%v, %v]", lo, hi)
	}
}

// scaled returns base with every value multiplied by f[i%len(f)].
func scaled(base []float64, f ...float64) []float64 {
	out := make([]float64, len(base))
	for i, b := range base {
		out[i] = b * f[i%len(f)]
	}
	return out
}

func TestSummariseVerdicts(t *testing.T) {
	base := []float64{10, 11, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6}
	for _, c := range []struct {
		name    string
		head    []float64
		better  string
		verdict string
		signs   [2]int // better, worse
	}{
		{"lower is better, 10% lower", scaled(base, 0.90, 0.91, 0.89), "lower", "better", [2]int{10, 0}},
		{"lower is better, 10% higher", scaled(base, 1.10, 1.09, 1.11), "lower", "worse", [2]int{0, 10}},
		{"higher is better, 10% higher", scaled(base, 1.10, 1.09, 1.11), "higher", "better", [2]int{10, 0}},
		{"higher is better, 10% lower", scaled(base, 0.90, 0.91, 0.89), "higher", "worse", [2]int{0, 10}},
		{"identical", scaled(base, 1), "lower", "unresolved", [2]int{0, 0}},
		{"noise either way", scaled(base, 0.95, 1.05), "lower", "unresolved", [2]int{5, 5}},
		{"four pairs", scaled(base[:4], 0.5), "lower", "unresolved", [2]int{4, 0}},
		{"a zero value", append(scaled(base[:9], 0.5), 0), "lower", "unresolved", [2]int{10, 0}},
	} {
		s := summarise(base[:len(c.head)], c.head, c.better)
		if s.verdict != c.verdict || s.better != c.signs[0] || s.worse != c.signs[1] {
			t.Errorf("%s: verdict %s, signs %d/%d; want %s, %d/%d",
				c.name, s.verdict, s.better, s.worse, c.verdict, c.signs[0], c.signs[1])
		}
	}
	s := summarise(base, scaled(base, 0.9), "lower")
	if want := math.Log(0.9); math.Abs(s.median-want) > 1e-12 || math.Abs(s.lo-want) > 1e-12 || math.Abs(s.hi-want) > 1e-12 {
		t.Errorf("a uniform 0.9 ratio: median %v in [%v, %v], want ln 0.9 = %v", s.median, s.lo, s.hi, want)
	}
	// The difference is the median of the paired differences, in the
	// metric's unit: base's median 10.15 less a tenth.
	if want := -0.1 * 10.15; math.Abs(s.diff-want) > 1e-12 {
		t.Errorf("a uniform 0.9 ratio: median difference %v, want %v", s.diff, want)
	}
	// A metric that does not vary reads its few bytes of difference, not
	// a rounded ln ratio: 3.93511 → 3.93513 MB.
	if s := summarise([]float64{3.93511}, []float64{3.93513}, "lower"); math.Abs(s.diff-2e-5) > 1e-12 {
		t.Errorf("3.93511 → 3.93513: median difference %v, want +2e-05", s.diff)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-pairs", "3"},
		{"-base", "HEAD", "-pairs", "0"},
		{"-base", "HEAD", "-seconds", "0"},
		{"-base", "HEAD", "extra"},
		{"-base", "HEAD", "-nosuch"},
		{"-base", "HEAD", "-workload", "nosuch"},
	} {
		if code := realMain(context.Background(), args, io.Discard, io.Discard); code != 2 {
			t.Errorf("ab %v: exit %d, want 2", args, code)
		}
	}
}

// pprofTop is `go tool pprof -top -cum` output as it prints it, cut to
// the rows -phases reads and a few it must skip.
const pprofTop = `File: bench
Type: cpu
Time: 2026-10-18 11:58:44 UTC
Duration: 4.33s, Total samples = 4.11s (94.98%)
Showing nodes accounting for 3.92s, 95.38% of 4.11s total
Dropped 39 nodes (cum <= 0.02s)
      flat  flat%   sum%        cum   cum%
         0     0%     0%      4.10s 99.76%  main.runPass
     0.08s  1.95%  1.95%      2.79s 67.88%  vix/internal/network.(*Network).tickRouters
     0.33s  8.03%  9.98%      2.41s 58.64%  vix/internal/router.(*Router).Advance
     0.05s  1.22% 11.20%      0.82s 19.95%  vix/internal/network.(*Network).source
     0.11s  2.68% 13.88%      0.48s 11.68%  vix/internal/network.(*Network).deliver
     0.12s  2.92% 16.80%      0.55s 13.38%  vix/internal/router.(*Router).allocateVCs
     0.01s  0.24% 17.04%      0.40s  9.73%  main.(*tracedAlloc).Allocate
     0.06s  1.46% 18.50%      0.36s  8.76%  vix/internal/alloc.(*SeparableIF).Allocate
     0.14s  3.41% 21.91%      0.30s  7.30%  vix/internal/alloc.(*SeparableIF).allocate
     0.30s  7.30% 29.21%      310ms  7.54%  vix/internal/network.(*Network).mergeRouter
     0.47s 11.44% 40.65%      0.47s 11.44%  vix/internal/sim.(*RNG).Uint64 (inline)
`

// Each phase reads the cum column of its method's row, whatever the
// unit; the largest of several Allocate rows (a wrapper around the
// built-in kind) wins, and allocate is not Allocate.
func TestParsePhasesReadsCumulativeSeconds(t *testing.T) {
	got, err := parsePhases(pprofTop)
	if err != nil {
		t.Fatal(err)
	}
	want := [len(phaseNames)]float64{2.41, 0.48, 0.55, 0.40, 0.31, 0.82}
	for i, name := range phaseNames {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("%s: %v s, want %v s", name, got[i], want[i])
		}
	}
	// A phase the profile does not list (never run, or dropped as too
	// small) reads zero.
	if got, err := parsePhases(strings.Join(strings.Split(pprofTop, "\n")[:8], "\n")); err != nil || got != [len(phaseNames)]float64{} {
		t.Errorf("a table without phase rows: %v, %v", got, err)
	}
	for name, out := range map[string]string{
		"no table":     "File: bench\nType: cpu\n",
		"bad duration": strings.Replace(pprofTop, "2.41s", "2.41x", 1),
		"bad number":   strings.Replace(pprofTop, "0.48s", "0.4.8s", 1),
	} {
		if _, err := parsePhases(out); err == nil {
			t.Errorf("%s: parsed without an error", name)
		}
	}
	for v, want := range map[string]float64{"0": 0, "10ms": 0.01, "1.5s": 1.5, "2mins": 120, "250us": 250e-6, "7ns": 7e-9} {
		if got, err := pprofSeconds(v); err != nil || math.Abs(got-want) > 1e-15 {
			t.Errorf("pprofSeconds(%q) = %v, %v; want %v", v, got, err, want)
		}
	}
}

// A -phases row goes to the record as one line per phase: the stamp,
// the workload, the phase and its row's medians, ln ratio and signs, and
// no field a verdict line has that a phase row lacks.
func TestWritePhaseRecordsRoundTrips(t *testing.T) {
	base, head := make([]run, 3), make([]run, 3)
	for p := range base {
		for i := range phaseNames {
			base[p].Phases[i] = float64(i+1) + float64(p)/10
			head[p].Phases[i] = base[p].Phases[i] * 0.5
		}
	}
	rows := phaseRows(base, head)
	st := stamp{Base: "b", Head: "h", HeadDirty: true, Host: host{CPUs: 2, Go: "go1"}, Pairs: 3, Seconds: 1}
	var buf strings.Builder
	if err := writePhaseRecords(&buf, st, "mesh32_sat", rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(phaseNames) {
		t.Fatalf("%d lines, want one per phase:\n%s", len(lines), buf.String())
	}
	for i, line := range lines {
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		var r phaseRecord
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		want := phaseRecord{
			stamp: st, Workload: "mesh32_sat", Phase: phaseNames[i],
			BaseSeconds: float64(i+1) + 0.1, HeadSeconds: (float64(i+1) + 0.1) * 0.5,
			LnRatio: math.Log(0.5), BetterIn: 3,
		}
		if r != want {
			t.Errorf("line %d: %+v, want %+v", i, r, want)
		}
	}
}

// The bench binary is built with -trimpath: the same source checked out
// in two directories builds to the same bytes, which it does not without
// the flag.
func TestBuildArgsGiveByteIdenticalBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four binaries")
	}
	args := buildArgs("bench.bin")
	if !slices.Contains(args, "-trimpath") {
		t.Fatalf("build arguments %v lack -trimpath", args)
	}
	build := func(args []string) [2][]byte {
		var bins [2][]byte
		for i := range bins {
			dir := t.TempDir()
			for name, src := range map[string]string{
				"go.mod":        "module abprobe\n\ngo 1.24\n",
				"bench/main.go": "package main\n\nimport \"fmt\"\n\nfunc main() { fmt.Println(\"bench\") }\n",
			} {
				if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := output(context.Background(), dir, "go", args...); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(dir, "bench.bin"))
			if err != nil {
				t.Fatal(err)
			}
			bins[i] = b
		}
		return bins
	}
	if bins := build(args); !bytes.Equal(bins[0], bins[1]) {
		t.Error("the same source in two directories built to different binaries")
	}
	untrimmed := slices.DeleteFunc(slices.Clone(args), func(a string) bool { return a == "-trimpath" })
	if bins := build(untrimmed); bytes.Equal(bins[0], bins[1]) {
		t.Error("without -trimpath the two directories still built the same bytes; the check shows nothing")
	}
}

// writeRecords writes a line per reported verdict, each its stamp, the
// workload and the verdict's statistics; a metric no pair reported is
// left out.
func TestWriteRecordsRoundTrips(t *testing.T) {
	base := []run{{Metrics: map[string]float64{"op_p50_ms": 10}}, {Metrics: map[string]float64{"op_p50_ms": 12}}}
	head := []run{{Metrics: map[string]float64{"op_p50_ms": 9}}, {Metrics: map[string]float64{"op_p50_ms": 11}}}
	metrics := []metric{{Name: "op_p50_ms", Unit: "ms", Better: "lower"}, {Name: "live_heap_mb", Unit: "MB", Better: "lower"}}
	st := stamp{Base: "b", Head: "h", HeadDirty: true, Host: host{CPUs: 2, Go: "go1"}, Pairs: 2, Seconds: 1}
	var buf strings.Builder
	if err := writeRecords(&buf, st, "mesh16_low", verdicts(base, head, metrics)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("%d lines, want 1:\n%s", len(lines), buf.String())
	}
	var r record
	if err := json.Unmarshal([]byte(lines[0]), &r); err != nil {
		t.Fatal(err)
	}
	if r.stamp != st || r.Workload != "mesh16_low" || r.Metric != "op_p50_ms" || r.Unit != "ms" ||
		r.BaseMedian != 11 || r.HeadMedian != 10 || r.Diff == nil || *r.Diff != -1 ||
		r.BetterIn != 2 || r.WorseIn != 0 || r.Verdict != "unresolved" {
		t.Errorf("record %+v", r)
	}
}

// Every line a -phases comparison writes, verdict and phase row alike,
// is marked "phases": true, since profiling inflates what its runs
// measure; an unprofiled comparison's lines lack the field, as the
// trajectory's older lines do.
func TestProfiledRecordsAreMarked(t *testing.T) {
	base := []run{{Metrics: map[string]float64{"live_heap_mb": 2.6}}}
	head := []run{{Metrics: map[string]float64{"live_heap_mb": 3.8}}}
	metrics := []metric{{Name: "live_heap_mb", Unit: "MB", Better: "lower"}}
	for _, profiled := range []bool{false, true} {
		st := newStamp("b", options{pairs: 1, seconds: 1, phases: profiled})
		var buf strings.Builder
		if err := writeRecords(&buf, st, "mesh32_sat", verdicts(base, head, metrics)); err != nil {
			t.Fatal(err)
		}
		want := 1
		if profiled {
			if err := writePhaseRecords(&buf, st, "mesh32_sat", phaseRows(base, head)); err != nil {
				t.Fatal(err)
			}
			want += len(phaseNames)
		}
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		if len(lines) != want {
			t.Fatalf("profiled %v: %d lines, want %d:\n%s", profiled, len(lines), want, buf.String())
		}
		for i, line := range lines {
			var fields map[string]any
			if err := json.Unmarshal([]byte(line), &fields); err != nil {
				t.Fatalf("profiled %v, line %d: %v", profiled, i, err)
			}
			if mark, ok := fields["phases"]; ok != profiled || ok && mark != true {
				t.Errorf("profiled %v, line %d: phases mark %v (present %v):\n%s", profiled, i, mark, ok, line)
			}
		}
	}
}

// dirty counts every change the head binary could be built from, an
// untracked file too, but not the record file that ab writes itself.
func TestDirtyCountsUntrackedFilesButNotTheRecord(t *testing.T) {
	root := t.TempDir()
	record := root + "/perf/trajectory.jsonl"
	for _, c := range []struct {
		status string
		want   bool
	}{
		{"", false},
		{" M perf/trajectory.jsonl\x00", false},
		{"?? perf/trajectory.jsonl\x00", false},
		{"?? internal/alloc/new.go\x00", true},
		{" M perf/trajectory.jsonl\x00 M internal/alloc/pool.go\x00", true},
		{"A  internal/alloc/pool.go\x00", true},
		{"R  b.go\x00a.go\x00", true},
	} {
		if got, err := dirty(c.status, root, record); err != nil || got != c.want {
			t.Errorf("dirty(%q) = %v, %v; want %v", c.status, got, err, c.want)
		}
	}
}

// failingCloser is an io.Closer whose Close fails.
type failingCloser struct{ err error }

func (c failingCloser) Close() error { return c.err }

// closeInto returns a failed Close through the caller's error, and keeps
// an error the caller already returns.
func TestCloseIntoKeepsTheFirstError(t *testing.T) {
	closeErr, runErr := errors.New("close"), errors.New("run")
	var err error
	closeInto(&err, failingCloser{closeErr})
	if err != closeErr {
		t.Errorf("after a failed Close, err = %v; want %v", err, closeErr)
	}
	err = runErr
	closeInto(&err, failingCloser{closeErr})
	if err != runErr {
		t.Errorf("a failed Close after a failed run: err = %v; want %v", err, runErr)
	}
	err = nil
	closeInto(&err, failingCloser{})
	if err != nil {
		t.Errorf("after a good Close, err = %v", err)
	}
}

// retiredPhases are phases the trajectory's older lines name that
// phaseNames no longer lists. tickRouter was phase A's wrapper around
// Router.Advance, which also counted activity; phase A is now the
// Advance call alone, reported as Advance.
var retiredPhases = []string{"tickRouter"}

// TestTrajectoryVerdictsFollowTheirIntervals reads the repository's perf
// trajectory, which cmd/ab -record appends to: every line names both
// revisions, its host and its pairs and a workload of BENCHMARK.json. A
// verdict line names an end-to-end metric, and its verdict is the one its
// interval and pair count give; a -phases line names a phase of
// phaseNames, or one of retiredPhases. Nothing is timed.
func TestTrajectoryVerdictsFollowTheirIntervals(t *testing.T) {
	c, err := readContract("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open("../../perf/trajectory.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	checkStamp := func(n int, st stamp, workload string) {
		if st.Base == "" || st.Head == "" || st.Host.CPUs < 1 || st.Host.Go == "" || st.Pairs < 1 || st.Seconds < 1 {
			t.Errorf("line %d: incomplete stamp %+v", n, st)
		}
		if !slices.ContainsFunc(c.Workloads, func(w struct {
			Name string `json:"name"`
		}) bool {
			return w.Name == workload
		}) {
			t.Errorf("line %d: workload %q is not in BENCHMARK.json", n, workload)
		}
	}
	for sc.Scan() {
		n++
		var kind struct {
			Phase string `json:"phase"`
		}
		if err := json.Unmarshal(sc.Bytes(), &kind); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		dec := json.NewDecoder(strings.NewReader(sc.Text()))
		dec.DisallowUnknownFields()
		if kind.Phase != "" {
			var r phaseRecord
			if err := dec.Decode(&r); err != nil {
				t.Fatalf("line %d: %v", n, err)
			}
			checkStamp(n, r.stamp, r.Workload)
			known := slices.Contains(phaseNames[:], r.Phase) || slices.Contains(retiredPhases, r.Phase)
			if !known || r.BetterIn+r.WorseIn > r.Pairs {
				t.Errorf("line %d: phase %q, signs %d/%d of %d pairs", n, r.Phase, r.BetterIn, r.WorseIn, r.Pairs)
			}
			continue
		}
		var r record
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		checkStamp(n, r.stamp, r.Workload)
		if i := slices.IndexFunc(c.EndToEnd, func(m metric) bool { return m.Name == r.Metric }); i < 0 || c.EndToEnd[i].Better != r.Better {
			t.Errorf("line %d: metric %q (better %s) is not an end-to-end metric of BENCHMARK.json", n, r.Metric, r.Better)
		}
		if !(r.CILo <= r.CIHi) || r.BetterIn+r.WorseIn > r.Pairs {
			t.Errorf("line %d: interval [%v, %v], signs %d/%d of %d pairs", n, r.CILo, r.CIHi, r.BetterIn, r.WorseIn, r.Pairs)
		}
		if want := judge(r.CILo, r.CIHi, r.Pairs, r.Better); r.Verdict != want {
			t.Errorf("line %d: %s %s reads %q, its interval [%+.4f, %+.4f] over %d pairs gives %q",
				n, r.Workload, r.Metric, r.Verdict, r.CILo, r.CIHi, r.Pairs, want)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("the trajectory is empty")
	}
}
