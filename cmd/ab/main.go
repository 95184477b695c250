// Command ab gives paired A/B verdicts on the benchmark's end-to-end
// metrics: it builds the bench command at a base revision and in the
// working tree, runs the two binaries in alternating pairs, and reports
// per metric whether the working tree is better, worse or unresolved
// against the base.
//
//	go run ./cmd/ab -base HEAD~1 -pairs 10 -workload mesh16_low
//	go run ./cmd/ab -base main -pairs 5 -seconds 4 -workload mesh8_sat -workload vixd_warm
//
// The base revision is checked out with `git worktree add --detach` into
// a temporary directory that is removed on exit. Each pair runs both
// binaries on one workload, the base first in even pairs and the working
// tree first in odd ones, and reads each run's last JSON line (the
// metrics) and its `stats digest` line. A pair whose digests differ stops
// the report, since the two builds then simulate different things;
// -allow-digest-change reports anyway.
//
// Per metric the report gives the base runs' median and quartiles, the
// median over pairs of ln(head/base), a 95 % bootstrap interval for that
// median (seeded, so a rerun on the same numbers prints the same
// interval), the count of pairs in which the working tree was better and
// worse, and a verdict in the direction BENCHMARK.json names: better or
// worse when the interval excludes zero, unresolved otherwise, and always
// unresolved below 5 pairs.
//
// Exit status: 0 when the report is printed, 1 when a build or run fails
// or the digests differ, 2 on a usage error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

// minPairs is the fewest pairs that may resolve a verdict.
const minPairs = 5

// metric is one end-to-end metric of BENCHMARK.json.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
}

// contract is the part of BENCHMARK.json ab reads.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

// run is what one bench run reports.
type run struct {
	Correct bool
	Digest  string
	Metrics map[string]float64
}

// workloads is the repeatable -workload flag.
type workloads []string

func (w *workloads) String() string     { return strings.Join(*w, ",") }
func (w *workloads) Set(v string) error { *w = append(*w, v); return nil }

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "", "git revision to compare the working tree against (required)")
	pairs := fs.Int("pairs", 10, "alternating (base, head) run pairs per workload")
	seconds := fs.Int("seconds", 10, "the bench command's -seconds")
	allowDigest := fs.Bool("allow-digest-change", false, "report even when a pair's stats digests differ")
	var names workloads
	fs.Var(&names, "workload", "workload to run (repeatable; default every workload in BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *pairs < 1 || *seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "ab: usage: ab -base <rev> [-pairs N] [-workload w]... [-seconds s] [-allow-digest-change]")
		return 2
	}
	root, err := output(ctx, "", "git", "rev-parse", "--show-toplevel")
	if err != nil {
		fmt.Fprintln(stderr, "ab:", err)
		return 1
	}
	root = strings.TrimSpace(root)
	c, err := readContract(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "ab:", err)
		return 1
	}
	known := make([]string, len(c.Workloads))
	for i, w := range c.Workloads {
		known[i] = w.Name
	}
	if len(names) == 0 {
		names = known
	}
	for _, n := range names {
		if !slices.Contains(known, n) {
			fmt.Fprintf(stderr, "ab: unknown workload %q; BENCHMARK.json names %v\n", n, known)
			return 2
		}
	}
	if err := compare(ctx, root, *base, names, c.EndToEnd, *pairs, *seconds, *allowDigest, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "ab:", err)
		return 1
	}
	return 0
}

// readContract loads BENCHMARK.json.
func readContract(path string) (contract, error) {
	var c contract
	b, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// compare builds both binaries, runs every workload's pairs and prints
// the report.
func compare(ctx context.Context, root, base string, names []string, metrics []metric, pairs, seconds int, allowDigest bool, stdout, stderr io.Writer) (err error) {
	tmp, err := os.MkdirTemp("", "ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	rev, err := output(ctx, root, "git", "rev-parse", "--verify", base+"^{commit}")
	if err != nil {
		return err
	}
	rev = strings.TrimSpace(rev)
	baseTree := filepath.Join(tmp, "base")
	if _, err := output(ctx, root, "git", "worktree", "add", "--detach", baseTree, rev); err != nil {
		return err
	}
	defer func() {
		// The context may be cancelled already; the worktree goes anyway.
		if _, rmErr := output(context.Background(), root, "git", "worktree", "remove", "--force", baseTree); rmErr != nil && err == nil {
			err = rmErr
		}
	}()
	sides := [2]struct{ name, tree, bin, out string }{
		{"base", baseTree, filepath.Join(tmp, "base.bench"), filepath.Join(tmp, "base.out")},
		{"head", root, filepath.Join(tmp, "head.bench"), filepath.Join(tmp, "head.out")},
	}
	for _, s := range sides {
		if _, err := output(ctx, s.tree, "go", "build", "-o", s.bin, "./bench"); err != nil {
			return fmt.Errorf("building %s: %w", s.name, err)
		}
	}
	fmt.Fprintf(stdout, "ab: base %.12s, head the working tree at %s; %d pairs, -seconds %d; %d CPUs, %s\n",
		rev, root, pairs, seconds, runtime.NumCPU(), runtime.Version())
	for _, w := range names {
		var runs [2][]run
		for p := 0; p < pairs; p++ {
			for i := range 2 {
				side := (p + i) % 2 // even pairs run the base first
				s := sides[side]
				out, err := output(ctx, s.tree, s.bin, "-workload", w, "-seconds", fmt.Sprint(seconds), "-out", s.out)
				if err != nil {
					return fmt.Errorf("%s pair %d, %s: %w", w, p, s.name, err)
				}
				r, err := parseRun(out)
				if err != nil {
					return fmt.Errorf("%s pair %d, %s: %w", w, p, s.name, err)
				}
				if !r.Correct {
					return fmt.Errorf("%s pair %d, %s: the run reports a failed correctness check", w, p, s.name)
				}
				runs[side] = append(runs[side], r)
			}
			if b, h := runs[0][p].Digest, runs[1][p].Digest; b != h && !allowDigest {
				return fmt.Errorf("%s pair %d: stats digest %s (base) != %s (head); -allow-digest-change reports anyway", w, p, b, h)
			}
			fmt.Fprintf(stderr, "ab: %s pair %d/%d done\n", w, p+1, pairs)
		}
		printWorkload(stdout, w, runs[0], runs[1], metrics)
	}
	return nil
}

// output runs name with args in dir and returns its standard output; the
// error carries the tail of its standard error.
func output(ctx context.Context, dir, name string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	var errBuf strings.Builder
	cmd.Stderr = &errBuf
	out, err := cmd.Output()
	if err != nil {
		msg := strings.TrimSpace(errBuf.String())
		if len(msg) > 2000 {
			msg = "…" + msg[len(msg)-2000:]
		}
		return "", fmt.Errorf("%s %s: %w\n%s", name, strings.Join(args, " "), err, msg)
	}
	return string(out), nil
}

// parseRun reads a bench run's standard output: the last line that is a
// JSON object carries correct and the metrics, and the `stats digest`
// line, if any, the digest.
func parseRun(out string) (run, error) {
	var r run
	var last string
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if d, ok := strings.CutPrefix(line, "stats digest "); ok {
			r.Digest = d
		}
		if strings.HasPrefix(line, "{") {
			last = line
		}
	}
	if last == "" {
		return r, errors.New("no JSON result line in the output")
	}
	var l struct {
		Correct *bool `json:"correct"`
		Metrics map[string]struct {
			Value *float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &l); err != nil {
		return r, fmt.Errorf("result line: %w", err)
	}
	if l.Correct == nil || l.Metrics == nil {
		return r, errors.New("result line lacks correct or metrics")
	}
	r.Correct = *l.Correct
	r.Metrics = make(map[string]float64, len(l.Metrics))
	for name, m := range l.Metrics {
		if m.Value == nil {
			return r, fmt.Errorf("result line: metric %s has no value", name)
		}
		r.Metrics[name] = *m.Value
	}
	return r, nil
}

// printWorkload prints one row per metric of the contract.
func printWorkload(w io.Writer, name string, base, head []run, metrics []metric) {
	digest := "none"
	if d := head[0].Digest; d != "" {
		digest = fmt.Sprintf("%.8s…", d)
	}
	fmt.Fprintf(w, "== %s  %d pairs  stats digest %s\n", name, len(base), digest)
	fmt.Fprintf(w, "  %-32s %12s %25s %12s %9s %22s %6s  %s\n", "metric", "base median", "base q1..q3", "head median", "ln(h/b)", "95% CI", "signs", "verdict")
	for _, m := range metrics {
		var b, h []float64
		for i := range base {
			bv, okB := base[i].Metrics[m.Name]
			hv, okH := head[i].Metrics[m.Name]
			if okB && okH {
				b, h = append(b, bv), append(h, hv)
			}
		}
		if len(b) == 0 {
			fmt.Fprintf(w, "  %-32s not reported\n", m.Name)
			continue
		}
		s := summarise(b, h, m.Better)
		fmt.Fprintf(w, "  %-32s %12.6g %25s %12.6g %+9.4f %22s %2d/%-3d  %s\n",
			m.Name, median(b), fmt.Sprintf("%.6g..%.6g", quantile(b, 0.25), quantile(b, 0.75)), median(h),
			s.median, fmt.Sprintf("[%+.4f, %+.4f]", s.lo, s.hi), s.better, s.worse, s.verdict)
	}
}

// summary is one metric's paired statistics.
type summary struct {
	median, lo, hi float64 // median ln(head/base) and its 95 % bootstrap interval
	better, worse  int     // pairs in which head was better, worse
	verdict        string  // "better", "worse" or "unresolved"
}

// bootstrapRounds is the number of resamples behind each interval.
const bootstrapRounds = 10000

// summarise compares paired samples base[i], head[i] of a metric whose
// better direction is "lower" or "higher". A pair with a non-positive
// value has no log-ratio; a metric with any such pair reads unresolved.
func summarise(base, head []float64, better string) summary {
	sign := 1.0 // ratio > 0 is better
	if better == "lower" {
		sign = -1
	}
	var s summary
	ratios := make([]float64, 0, len(base))
	for i := range base {
		switch {
		case head[i]*sign > base[i]*sign:
			s.better++
		case head[i]*sign < base[i]*sign:
			s.worse++
		}
		if base[i] > 0 && head[i] > 0 {
			ratios = append(ratios, math.Log(head[i]/base[i]))
		}
	}
	s.verdict = "unresolved"
	if len(ratios) == 0 {
		return s
	}
	s.median = median(ratios)
	s.lo, s.hi = bootstrapCI(ratios, bootstrapRounds)
	if len(ratios) < len(base) || len(ratios) < minPairs {
		return s
	}
	switch {
	case s.lo*sign > 0 && s.hi*sign > 0:
		s.verdict = "better"
	case s.lo*sign < 0 && s.hi*sign < 0:
		s.verdict = "worse"
	}
	return s
}

// median returns the median of xs, which it does not modify.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics (numpy's default), without modifying xs.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 == len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// bootstrapCI returns the 2.5th and 97.5th percentiles of the medians of
// rounds resamples of xs, drawn with replacement from a fixed seed.
func bootstrapCI(xs []float64, rounds int) (lo, hi float64) {
	rng := splitmix(0x5eed)
	meds := make([]float64, rounds)
	sample := make([]float64, len(xs))
	for r := range meds {
		for i := range sample {
			sample[i] = xs[rng.next()%uint64(len(xs))]
		}
		meds[r] = median(sample)
	}
	slices.Sort(meds)
	return meds[rounds*25/1000], meds[rounds*975/1000-1]
}

// splitmix is the SplitMix64 generator: the bootstrap's only randomness,
// fixed so one set of pairs always prints one interval.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
