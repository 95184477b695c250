// Command ab gives paired A/B verdicts on the benchmark's end-to-end
// metrics: it builds the bench command at a base revision and in the
// working tree, runs the two binaries in alternating pairs, and reports
// per metric whether the working tree is better, worse or unresolved
// against the base.
//
//	go run ./cmd/ab -base HEAD~1 -pairs 10 -workload mesh16_low
//	go run ./cmd/ab -base main -pairs 5 -seconds 4 -workload mesh8_sat -workload vixd_warm
//	go run ./cmd/ab -base HEAD -pairs 10 -phases -workload mesh16_low
//
// The base revision is checked out with `git worktree add --detach` into
// a temporary directory that is removed on exit, and both sides are built
// with -trimpath, so identical source gives byte-identical binaries
// wherever it is checked out. Each pair runs both
// binaries on one workload, the base first in even pairs and the working
// tree first in odd ones, and reads each run's last JSON line (the
// metrics) and its `stats digest` line. A pair whose digests differ stops
// the report, since the two builds then simulate different things;
// -allow-digest-change reports anyway.
//
// Per metric the report gives the base runs' median and quartiles, the
// median over pairs of head − base in the metric's own unit (so a
// verdict on a metric whose runs do not vary can be read as bytes or
// milliseconds), the median over pairs of ln(head/base), a 95 % bootstrap
// interval for that
// median (seeded, so a rerun on the same numbers prints the same
// interval), the count of pairs in which the working tree was better and
// worse, and a verdict in the direction BENCHMARK.json names: better or
// worse when the interval excludes zero, unresolved otherwise, and always
// unresolved below 5 pairs.
//
// -record appends one JSON line per (workload, metric) verdict to a file
// (a trajectory; the repository keeps its own in perf/trajectory.jsonl):
// both revisions, the host, the pair count and -seconds, both medians
// and quartiles, the median head − base, the median ln(head/base) with
// its interval, the sign counts and the verdict. With -phases it also
// appends one line per phase row, named by its "phase" field, and marks
// every line it writes "phases": true, as profiling inflates the runs'
// live heap and slows them. The head
// revision is the working tree's HEAD commit, marked dirty when the tree
// has uncommitted changes — then the line measures the change that is
// being committed with it.
//
// -phases also passes the bench command's -cpuprofile to every run and
// reads the profile with `go tool pprof -top -cum`: per phase of a
// network step (Advance, deliver, allocateVCs, Allocate, mergeRouter,
// source) it prints the median cumulative seconds on each side and the
// median ln(head/base). Equal digests mean both sides simulated the same
// cycles, so the seconds compare work, not run length. A phase the
// profile does not list reads zero.
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
	"strconv"
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
	Phases  [len(phaseNames)]float64 // -phases: cumulative CPU seconds per phase
}

// phaseNames are the step phases -phases reports, each the method of that
// name (on any receiver, so Allocate is whichever allocator ran).
var phaseNames = [...]string{"Advance", "deliver", "allocateVCs", "Allocate", "mergeRouter", "source"}

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
	withPhases := fs.Bool("phases", false, "profile every run and report each step phase's CPU seconds")
	record := fs.String("record", "", "append one JSON line per (workload, metric) verdict to this file")
	var names workloads
	fs.Var(&names, "workload", "workload to run (repeatable; default every workload in BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *pairs < 1 || *seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "ab: usage: ab -base <rev> [-pairs N] [-workload w]... [-seconds s] [-allow-digest-change] [-phases] [-record file]")
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
	o := options{pairs: *pairs, seconds: *seconds, allowDigest: *allowDigest, phases: *withPhases, record: *record}
	if err := compare(ctx, root, *base, names, c.EndToEnd, o, stdout, stderr); err != nil {
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

// options are the flags that shape a comparison.
type options struct {
	pairs, seconds int
	allowDigest    bool
	phases         bool   // profile each run and report phaseNames
	record         string // file to append the verdicts to, or ""
}

// compare builds both binaries, runs every workload's pairs and prints
// the report.
func compare(ctx context.Context, root, base string, names []string, metrics []metric, o options, stdout, stderr io.Writer) (err error) {
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
	sides := [2]struct{ name, tree, bin, out, prof string }{
		{"base", baseTree, filepath.Join(tmp, "base.bench"), filepath.Join(tmp, "base.out"), filepath.Join(tmp, "base.cpu")},
		{"head", root, filepath.Join(tmp, "head.bench"), filepath.Join(tmp, "head.out"), filepath.Join(tmp, "head.cpu")},
	}
	for _, s := range sides {
		if _, err := output(ctx, s.tree, "go", buildArgs(s.bin)...); err != nil {
			return fmt.Errorf("building %s: %w", s.name, err)
		}
	}
	fmt.Fprintf(stdout, "ab: base %.12s, head the working tree at %s; %d pairs, -seconds %d; %d CPUs, %s\n",
		rev, root, o.pairs, o.seconds, runtime.NumCPU(), runtime.Version())
	var rec *os.File
	stamp := newStamp(rev, o)
	if o.record != "" {
		if rec, err = openRecord(ctx, root, o.record, &stamp); err != nil {
			return err
		}
		defer closeInto(&err, rec)
	}
	for _, w := range names {
		var runs [2][]run
		for p := 0; p < o.pairs; p++ {
			for i := range 2 {
				side := (p + i) % 2 // even pairs run the base first
				s := sides[side]
				args := []string{"-workload", w, "-seconds", fmt.Sprint(o.seconds), "-out", s.out}
				if o.phases {
					args = append(args, "-cpuprofile", s.prof)
				}
				out, err := output(ctx, s.tree, s.bin, args...)
				if err != nil {
					return fmt.Errorf("%s pair %d, %s: %w", w, p, s.name, err)
				}
				r, err := parseRun(out)
				if err != nil {
					return fmt.Errorf("%s pair %d, %s: %w", w, p, s.name, err)
				}
				if o.phases {
					top, err := output(ctx, "", "go", "tool", "pprof", "-top", "-cum", s.prof)
					if err != nil {
						return fmt.Errorf("%s pair %d, %s: %w", w, p, s.name, err)
					}
					if r.Phases, err = parsePhases(top); err != nil {
						return fmt.Errorf("%s pair %d, %s profile: %w", w, p, s.name, err)
					}
				}
				if !r.Correct {
					return fmt.Errorf("%s pair %d, %s: the run reports a failed correctness check", w, p, s.name)
				}
				runs[side] = append(runs[side], r)
			}
			if b, h := runs[0][p].Digest, runs[1][p].Digest; b != h && !o.allowDigest {
				return fmt.Errorf("%s pair %d: stats digest %s (base) != %s (head); -allow-digest-change reports anyway", w, p, b, h)
			}
			fmt.Fprintf(stderr, "ab: %s pair %d/%d done\n", w, p+1, o.pairs)
		}
		vs := verdicts(runs[0], runs[1], metrics)
		printWorkload(stdout, w, runs[1], vs)
		if rec != nil {
			if err := writeRecords(rec, stamp, w, vs); err != nil {
				return err
			}
		}
		if o.phases {
			rows := phaseRows(runs[0], runs[1])
			printPhases(stdout, rows)
			if rec != nil {
				if err := writePhaseRecords(rec, stamp, w, rows); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// buildArgs are the go command's arguments that build the bench command
// into bin. -trimpath keeps the checkout's directory out of the binary,
// so the base's temporary worktree and the working tree build identical
// source into identical bytes.
func buildArgs(bin string) []string {
	return []string{"build", "-trimpath", "-o", bin, "./bench"}
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

// verdict is one metric's comparison over a workload's pairs.
type verdict struct {
	metric
	base, head []float64 // the pairs that reported the metric on both sides
	summary
}

// verdicts compares base and head on every metric of the contract; a
// metric neither side reported has no pairs.
func verdicts(base, head []run, metrics []metric) []verdict {
	vs := make([]verdict, len(metrics))
	for j, m := range metrics {
		v := verdict{metric: m}
		for i := range base {
			bv, okB := base[i].Metrics[m.Name]
			hv, okH := head[i].Metrics[m.Name]
			if okB && okH {
				v.base, v.head = append(v.base, bv), append(v.head, hv)
			}
		}
		if len(v.base) > 0 {
			v.summary = summarise(v.base, v.head, m.Better)
		}
		vs[j] = v
	}
	return vs
}

// printWorkload prints one row per verdict.
func printWorkload(w io.Writer, name string, head []run, vs []verdict) {
	digest := "none"
	if d := head[0].Digest; d != "" {
		digest = fmt.Sprintf("%.8s…", d)
	}
	fmt.Fprintf(w, "== %s  %d pairs  stats digest %s\n", name, len(head), digest)
	fmt.Fprintf(w, "  %-32s %12s %25s %12s %20s %9s %22s %6s  %s\n", "metric", "base median", "base q1..q3", "head median", "head−base", "ln(h/b)", "95% CI", "signs", "verdict")
	for _, v := range vs {
		if len(v.base) == 0 {
			fmt.Fprintf(w, "  %-32s not reported\n", v.Name)
			continue
		}
		b, s := v.base, v.summary
		fmt.Fprintf(w, "  %-32s %12.6g %25s %12.6g %20s %+9.4f %22s %2d/%-3d  %s\n",
			v.Name, median(b), fmt.Sprintf("%.6g..%.6g", quantile(b, 0.25), quantile(b, 0.75)), median(v.head),
			fmt.Sprintf("%+.4g %s", s.diff, v.Unit), s.median, fmt.Sprintf("[%+.4f, %+.4f]", s.lo, s.hi), s.better, s.worse, s.verdict)
	}
}

// stamp is what every record of one ab invocation shares.
type stamp struct {
	Base      string `json:"base"`
	Head      string `json:"head"`
	HeadDirty bool   `json:"head_dirty"`
	Host      host   `json:"host"`
	Pairs     int    `json:"pairs"`
	Seconds   int    `json:"seconds"`
	Phases    bool   `json:"phases,omitempty"` // the runs were profiled
}

// newStamp is the stamp of a comparison against base revision rev, on
// this host, before openRecord names the head.
func newStamp(rev string, o options) stamp {
	return stamp{Base: rev, Pairs: o.pairs, Seconds: o.seconds, Host: thisHost(), Phases: o.phases}
}

// openRecord stamps st with the head revision, and whether the working
// tree the head binary is built from differs from it, and opens the
// record file for appending.
func openRecord(ctx context.Context, root, path string, st *stamp) (*os.File, error) {
	head, err := output(ctx, root, "git", "rev-parse", "HEAD")
	if err != nil {
		return nil, err
	}
	st.Head = strings.TrimSpace(head)
	status, err := output(ctx, root, "git", "status", "--porcelain", "-z", "--untracked-files=all")
	if err != nil {
		return nil, err
	}
	if st.HeadDirty, err = dirty(status, root, path); err != nil {
		return nil, err
	}
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
}

// dirty reports whether `git status --porcelain -z` output status, of the
// repository at root, names any change: a tracked file that differs from
// HEAD or an untracked one, as the head binary is built from both. The
// record file is left out, as ab itself writes it.
func dirty(status, root, record string) (bool, error) {
	abs, err := filepath.Abs(record)
	if err != nil {
		return false, err
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil {
		return false, err
	}
	for _, entry := range strings.Split(status, "\x00") {
		// An entry is "XY path"; a rename's source path follows as an
		// entry of its own, after a rename that counts anyway.
		if len(entry) > 3 && filepath.FromSlash(entry[3:]) != rel {
			return true, nil
		}
	}
	return false, nil
}

// closeInto closes c and, if that fails, sets *err unless it already
// holds an error: a deferred Close whose failure the caller returns.
func closeInto(err *error, c io.Closer) {
	if cerr := c.Close(); cerr != nil && *err == nil {
		*err = cerr
	}
}

// host names the machine the pairs ran on.
type host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Model      string `json:"cpu_model,omitempty"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Go         string `json:"go"`
}

func thisHost() host {
	h := host{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Go: runtime.Version()}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.Model = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// record is one line of a trajectory: a verdict with its stamp.
type record struct {
	stamp
	Workload   string  `json:"workload"`
	Metric     string  `json:"metric"`
	Unit       string  `json:"unit"`
	Better     string  `json:"better"`
	BaseMedian float64 `json:"base_median"`
	BaseQ1     float64 `json:"base_q1"`
	BaseQ3     float64 `json:"base_q3"`
	HeadMedian float64 `json:"head_median"`
	HeadQ1     float64 `json:"head_q1"`
	HeadQ3     float64 `json:"head_q3"`
	// Diff is the median head − base in Unit; lines written before ab
	// reported it lack it.
	Diff     *float64 `json:"diff_median,omitempty"`
	LnRatio  float64  `json:"ln_ratio_median"`
	CILo     float64  `json:"ci_lo"`
	CIHi     float64  `json:"ci_hi"`
	BetterIn int      `json:"better_pairs"`
	WorseIn  int      `json:"worse_pairs"`
	Verdict  string   `json:"verdict"`
}

// writeRecords appends a line per reported verdict to w.
func writeRecords(w io.Writer, st stamp, workload string, vs []verdict) error {
	for _, v := range vs {
		if len(v.base) == 0 {
			continue
		}
		line, err := json.Marshal(record{
			stamp: st, Workload: workload, Metric: v.Name, Unit: v.Unit, Better: v.metric.Better,
			BaseMedian: median(v.base), BaseQ1: quantile(v.base, 0.25), BaseQ3: quantile(v.base, 0.75),
			HeadMedian: median(v.head), HeadQ1: quantile(v.head, 0.25), HeadQ3: quantile(v.head, 0.75),
			Diff: &v.diff, LnRatio: v.median, CILo: v.lo, CIHi: v.hi,
			BetterIn: v.summary.better, WorseIn: v.worse, Verdict: v.verdict,
		})
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// parsePhases reads `go tool pprof -top -cum` output: per phase, the
// cumulative seconds of the function whose name ends in ").<phase>", the
// largest if several do (a wrapper's Allocate around the built-in one),
// and zero if none is listed. Rows are "flat flat% sum% cum cum% name
// [(inline)]".
func parsePhases(top string) ([len(phaseNames)]float64, error) {
	var cum [len(phaseNames)]float64
	header := false
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		if len(f) >= 5 && f[0] == "flat" && f[3] == "cum" {
			header = true
			continue
		}
		if !header || len(f) < 6 {
			continue
		}
		for i, p := range phaseNames {
			if !strings.HasSuffix(f[5], ")."+p) {
				continue
			}
			s, err := pprofSeconds(f[3])
			if err != nil {
				return cum, fmt.Errorf("%s: %w", f[5], err)
			}
			cum[i] = max(cum[i], s)
		}
	}
	if !header {
		return cum, errors.New("no pprof -top table")
	}
	return cum, nil
}

// pprofSeconds parses a pprof duration column: "0", or a number with one
// of the units pprof prints (ns, us, ms, s, mins, hrs).
func pprofSeconds(v string) (float64, error) {
	if v == "0" {
		return 0, nil
	}
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}} {
		if num, ok := strings.CutSuffix(v, u.suffix); ok {
			x, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("duration %q: %w", v, err)
			}
			return x * u.scale, nil
		}
	}
	return 0, fmt.Errorf("duration %q has no unit", v)
}

// phaseRow is one -phases row: a phase's median cumulative seconds on
// each side and their paired comparison.
type phaseRow struct {
	name       string
	base, head float64
	summary
}

// phaseRows compares base and head on every phase of phaseNames.
func phaseRows(base, head []run) []phaseRow {
	rows := make([]phaseRow, len(phaseNames))
	for i, name := range phaseNames {
		b, h := make([]float64, len(base)), make([]float64, len(head))
		for p := range base {
			b[p], h[p] = base[p].Phases[i], head[p].Phases[i]
		}
		rows[i] = phaseRow{name: name, base: median(b), head: median(h), summary: summarise(b, h, "lower")}
	}
	return rows
}

// printPhases prints one row per phase: each side's median cumulative
// seconds and the median over pairs of ln(head/base).
func printPhases(w io.Writer, rows []phaseRow) {
	fmt.Fprintf(w, "  %-32s %12s %12s %9s %6s\n", "phase (pprof cum)", "base s", "head s", "ln(h/b)", "signs")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-32s %12.3f %12.3f %+9.4f %2d/%-3d\n", r.name, r.base, r.head, r.median, r.better, r.worse)
	}
}

// phaseRecord is one line of a trajectory for a -phases row: what
// printPhases prints, with the stamp.
type phaseRecord struct {
	stamp
	Workload    string  `json:"workload"`
	Phase       string  `json:"phase"`
	BaseSeconds float64 `json:"base_median_s"`
	HeadSeconds float64 `json:"head_median_s"`
	LnRatio     float64 `json:"ln_ratio_median"`
	BetterIn    int     `json:"better_pairs"`
	WorseIn     int     `json:"worse_pairs"`
}

// writePhaseRecords appends a line per phase row to w.
func writePhaseRecords(w io.Writer, st stamp, workload string, rows []phaseRow) error {
	for _, r := range rows {
		line, err := json.Marshal(phaseRecord{
			stamp: st, Workload: workload, Phase: r.name, BaseSeconds: r.base, HeadSeconds: r.head,
			LnRatio: r.median, BetterIn: r.better, WorseIn: r.worse,
		})
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// summary is one metric's paired statistics.
type summary struct {
	diff           float64 // median head − base, in the metric's unit
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
	ratios, diffs := make([]float64, 0, len(base)), make([]float64, len(base))
	for i := range base {
		diffs[i] = head[i] - base[i]
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
	s.diff = median(diffs)
	s.verdict = "unresolved"
	if len(ratios) == 0 {
		return s
	}
	s.median = median(ratios)
	s.lo, s.hi = bootstrapCI(ratios, bootstrapRounds)
	if len(ratios) == len(base) {
		s.verdict = judge(s.lo, s.hi, len(ratios), better)
	}
	return s
}

// judge is the verdict of an ln(head/base) interval [lo, hi] over pairs
// pairs, for a metric whose better direction is better: better or worse
// when the interval excludes zero, unresolved otherwise or below
// minPairs.
func judge(lo, hi float64, pairs int, better string) string {
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	switch {
	case pairs < minPairs:
		return "unresolved"
	case lo*sign > 0 && hi*sign > 0:
		return "better"
	case lo*sign < 0 && hi*sign < 0:
		return "worse"
	}
	return "unresolved"
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
