// Command bench (vixbench) is the repository's performance ledger: one
// command that runs named workloads against the simulator kernel and the
// vixd service, prints every metric by name with its unit, checks that
// what was simulated and served is correct, and exits non-zero when a
// check fails. README.md in this directory explains the workloads, the
// metrics and how they interact; BENCHMARK.json at the repository root is
// the contract later changes are held to.
//
//	go run ./bench -workload mesh8_sat            # end-to-end metrics, untraced
//	go run ./bench -workload mesh8_sat -trace 1   # per-layer metrics, traced
//	go run ./bench -workload all -repeat 2        # A/A: every metric against its bound
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"vix/internal/sim"
	"vix/internal/topology"
)

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	sim  *simSpec
	vixd *vixdSpec
}

// workloads is the benchmark's fixed set. Sizes are for -seconds 10 on a
// 2-core box; the cycle counts per window and per case never change, the
// number of windows, rounds and replays follows -seconds.
var workloads = []workload{
	{
		name: "mesh8_sat",
		why:  "the paper's 8x8 VIX mesh at saturation: every router busy every cycle, so router.Tick and the allocator do the work and the activity gate none",
		sim: &simSpec{topo: topology.KindMesh, w: 8, h: 8, allocKind: "if", k: 2, policy: "balanced",
			warmup: 3000, window: 20000, paperGap: true},
	},
	{
		name: "mesh16_low",
		why:  "16x16 mesh at 2% of saturation: ~1% of routers tick per cycle, so injection draws, wheels and the worklist do the work and the allocator almost none",
		sim: &simSpec{topo: topology.KindMesh, w: 16, h: 16, allocKind: "if", k: 2, policy: "balanced",
			rate: 0.001116, warmup: 3000, window: 300000},
	},
	{
		name: "mesh32_sat",
		why:  "mesh8_sat's code on a 16x larger working set: isolates cache and arena-layout effects, and the only size where the sharded tick can pay",
		sim: &simSpec{topo: topology.KindMesh, w: 32, h: 32, allocKind: "if", k: 2, policy: "balanced",
			warmup: 1500, window: 1500, sharded: true},
	},
	{
		name: "fbfly_wf_sat",
		why:  "4x4 flattened butterfly c=4 (radix 10), wavefront k=1, maxfree: another allocator, twice the radix, the other VC policy, so a gain bought for if k=2 at shared helpers' expense shows as a loss",
		sim: &simSpec{topo: topology.KindFBfly, w: 4, h: 4, conc: 4, allocKind: "wavefront", k: 1, policy: "maxfree",
			warmup: 3000, window: 25000},
	},
	{
		name: "vixd_cold",
		why:  "2 closed-loop clients post distinct cases to vixd: service, store, harness and config are on the blocking path but the kernel sets the latency",
		vixd: &vixdSpec{warmup: 1000, measure: 3000},
	},
	{
		name: "vixd_warm",
		why:  "the same clients replay stored cases: every request is a store hit, so latency is service and store overhead and a kernel gain must not move it",
		vixd: &vixdSpec{warm: true, rounds: 5, warmup: 200, measure: 800},
	},
}

// runOpts is how one workload is run.
type runOpts struct {
	seconds int
	traced  bool
	div     int // divides cycle and iteration counts; tests use 100
	windows int // per pass of a simulation workload
	outDir  string
	profile func() (stop func(), err error)
}

// sized derives the amount of work from -seconds: about 0.6 windows, half
// a cold grid round and forty warm replays per second, never fewer than
// five windows. A traced run splits the work between its untraced and
// traced passes.
func (w workload) sized(o runOpts) (workload, runOpts) {
	o.windows = max(o.seconds*6/10, 5)
	if o.traced {
		o.windows = max(o.windows/2, 3)
	}
	if w.sim != nil {
		s := w.sim.scaled(o.div)
		w.sim = &s
	}
	if w.vixd != nil {
		v := *w.vixd
		if !v.warm {
			v.rounds = max(o.seconds/2, 2)
		}
		v.replays = max(o.seconds*40, 3)
		if o.traced {
			v.rounds, v.replays = max(v.rounds/2, 2), max(v.replays/2, 3)
		}
		v = v.scaled(o.div)
		w.vixd = &v
	}
	return w, o
}

// hostInfo is carried by every report so a number is never read without
// the machine and build it came from.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func host() hostInfo {
	return hostInfo{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit()}
}

// commit reads HEAD from .git, if the benchmark runs inside a clone.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	name, isRef := strings.CutPrefix(ref, "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, ok := strings.CutSuffix(line, " "+name); ok {
			return hash
		}
	}
	return "unknown"
}

// report is one workload's run: the section written to out/ and the
// source of the result line.
type report struct {
	Workload  string               `json:"workload"`
	Why       string               `json:"why"`
	Seed      uint64               `json:"seed"`
	Seconds   int                  `json:"seconds"`
	Traced    bool                 `json:"traced"`
	Host      hostInfo             `json:"host"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
	Digest    string               `json:"stats_digest,omitempty"`
	Metrics   map[string]sample    `json:"metrics"`
	Extra     map[string]sample    `json:"extra,omitempty"`
	Hists     map[string]histogram `json:"histograms,omitempty"`

	spans *spanRecorder
}

// fail books one failed operation.
func (r *report) fail(msg string) {
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, msg)
	}
}

// addPass books a simulation pass's windows as operations.
func (r *report) addPass(p *passResult) {
	r.Attempted += len(p.windows)
	for _, w := range p.windows {
		if w.failed != "" {
			r.fail(w.failed)
		}
	}
}

// runWorkload runs one workload once and returns its report.
func runWorkload(ctx context.Context, w workload, seed uint64, o runOpts) (*report, error) {
	w, o = w.sized(o)
	r := &report{
		Workload: w.name, Why: w.why, Seed: seed, Seconds: o.seconds, Traced: o.traced, Host: host(),
		Metrics: map[string]sample{}, Extra: map[string]sample{}, Hists: map[string]histogram{},
	}
	if o.traced {
		r.spans = newSpanRecorder()
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	var err error
	switch {
	case w.vixd != nil:
		r.Digest, err = runVixd(ctx, *w.vixd, seed, r, o)
	case o.traced:
		r.Digest, err = runSimTraced(ctx, *w.sim, seed, r, o)
	default:
		r.Digest, err = runSimEndToEnd(ctx, *w.sim, seed, r, o)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", w.name, d.Name)
		}
	}
	return r, nil
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]lineMetrics `json:"metrics"`
}

type lineMetrics struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) line() resultLine {
	l := resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]lineMetrics{}}
	for name, s := range r.Metrics {
		l.Metrics[name] = lineMetrics{Value: s.Value, Unit: s.Unit}
	}
	return l
}

// print writes the human-readable section and then the result line.
func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "== %s  seed %d  %d s  traced %v  [%d CPUs, GOMAXPROCS %d, %s, commit %.12s]\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Host.CPUs, r.Host.GOMAXPROCS, r.Host.Go, r.Host.Commit)
	table := func(m map[string]sample) {
		for _, name := range sim.SortedKeys(m) {
			s := m[name]
			if s.N > 1 {
				fmt.Fprintf(w, "  %-34s %14.6g %-14s n=%d  q1 %.6g  q3 %.6g\n", name, s.Value, s.Unit, s.N, s.Q1, s.Q3)
			} else {
				fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, s.Value, s.Unit)
			}
		}
	}
	table(r.Metrics)
	if len(r.Extra) > 0 {
		fmt.Fprintf(w, "  -- only this workload measures:\n")
		table(r.Extra)
	}
	if r.Digest != "" {
		fmt.Fprintf(w, "  stats digest %s\n", r.Digest)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	return json.NewEncoder(w).Encode(r.line())
}

// save writes the report and, for a traced run, its spans under out/.
func (r *report) save(outDir string) error {
	mode := "e2e"
	if r.Traced {
		mode = "trace"
		if err := r.spans.write(filepath.Join(outDir, "trace-"+r.Workload+".jsonl")); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("report-%s-%s.json", r.Workload, mode)), append(b, '\n'), 0o644)
}

// profiler returns the bracket runOpts.profile wants: a CPU profile over
// the measured phase and a heap profile at its end.
func profiler(cpuPath, memPath string) func() (func(), error) {
	if cpuPath == "" && memPath == "" {
		return nil
	}
	return func() (func(), error) {
		var cpu *os.File
		if cpuPath != "" {
			f, err := os.Create(cpuPath)
			if err != nil {
				return nil, err
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return nil, err
			}
			cpu = f
		}
		return func() {
			if cpu != nil {
				pprof.StopCPUProfile()
				cpu.Close()
			}
			if memPath == "" {
				return
			}
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vixbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "vixbench:", err)
			}
		}, nil
	}
}

// selected resolves -workload.
func selected(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return []workload{w}, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q; want all or one of %s", name, strings.Join(names, ", "))
}

var errFailed = errors.New("vixbench: operations failed")

// run is main without the exit: every path returns through the deferred
// clean-up of what it started. div divides every cycle and iteration
// count; only tests pass anything but 1.
func run(ctx context.Context, args []string, stdout io.Writer, div int) error {
	fs := flag.NewFlagSet("vixbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Uint64("seed", 1, "the only input to workload generation")
	seconds := fs.Int("seconds", 10, "sizes the measured work: about this long on a 2-core box")
	trace := fs.Int("trace", 0, "1: traced run, prints per-layer metrics and writes spans; 0: untraced, end-to-end metrics")
	repeat := fs.Int("repeat", 1, "run the selection this many times on one binary and compare every end-to-end metric against its bound (A/A)")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for reports, spans and temporary stores")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile of the measured phase (suffixed .<workload> when several run)")
	memProf := fs.String("memprofile", "", "write a heap profile after the measured phase (suffixed like -cpuprofile)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || *repeat < 1 || fs.NArg() > 0 {
		return fmt.Errorf("vixbench: -seconds and -repeat must be positive and there are no positional arguments")
	}
	ws, err := selected(*name)
	if err != nil {
		return err
	}
	failed := false
	runs := make([][]*report, len(ws))
	for rep := 0; rep < *repeat; rep++ {
		for i, w := range ws {
			cpu, mem := *cpuProf, *memProf
			if len(ws) > 1 && cpu != "" {
				cpu += "." + w.name
			}
			if len(ws) > 1 && mem != "" {
				mem += "." + w.name
			}
			o := runOpts{seconds: *seconds, traced: *trace != 0, div: div, outDir: *outDir, profile: profiler(cpu, mem)}
			r, err := runWorkload(ctx, w, *seed, o)
			if err != nil {
				return err
			}
			if err := r.save(*outDir); err != nil {
				return err
			}
			if err := r.print(stdout); err != nil {
				return err
			}
			failed = failed || r.Failed > 0
			runs[i] = append(runs[i], r)
		}
	}
	if *repeat > 1 && *trace == 0 {
		if !compareRuns(stdout, runs) {
			failed = true
		}
	}
	if failed {
		return errFailed
	}
	return nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, 1)
	stop()
	if err != nil {
		if !errors.Is(err, errFailed) && !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "vixbench:", err)
		}
		os.Exit(1)
	}
}
