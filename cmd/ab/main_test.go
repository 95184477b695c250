package main

import (
	"context"
	"io"
	"math"
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
