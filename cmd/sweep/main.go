// Command sweep runs a grid of (scheme, injection rate) simulations and
// emits one CSV row per point — the raw data behind Figure 8-style plots,
// ready for any plotting tool.
//
// Schemes are comma-separated allocator:k pairs, e.g.
//
//	sweep -schemes if:1,wavefront:1,ap:1,if:2 -rates 0.02,0.04,0.06,0.08
//
// The grid fans out across -parallel workers through internal/harness;
// the CSV is byte-identical whatever the worker count, because rows are
// merged in grid order and every point owns a sub-seed derived from its
// coordinates rather than from execution order. With -resume, completed
// points are checkpointed to a JSONL manifest and a rerun splices them
// in instead of recomputing.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"vix/internal/alloc"
	"vix/internal/config"
	"vix/internal/harness"
	"vix/internal/network"
	"vix/internal/sim"
)

// scheme is one allocator:k coordinate of the grid.
type scheme struct {
	alloc string
	k     int
}

// sweepHeader is the CSV schema, stable across harness options.
var sweepHeader = []string{"allocator", "k", "offered_rate", "avg_latency", "p50_latency", "p99_latency", "throughput_flits", "throughput_packets", "fairness"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	var (
		configPath = flag.String("config", "", "JSON experiment file used as the base configuration")
		topoName   = flag.String("topo", "", "override the base topology: mesh, torus, cmesh, or fbfly")
		schemesStr = flag.String("schemes", "if:1,wavefront:1,ap:1,if:2", "comma-separated allocator:k pairs")
		ratesStr   = flag.String("rates", "0.01,0.03,0.05,0.07,0.09", "comma-separated injection rates (packets/cycle/node)")
		saturate   = flag.Bool("sat", true, "append a saturation point per scheme")
		out        = flag.String("o", "", "output file (default stdout)")
		parallel   = flag.Int("parallel", 0, "worker count (default GOMAXPROCS)")
		workers    = flag.Int("workers", 1, "parallel-tick workers per simulation (1 serial, <0 GOMAXPROCS); output is byte-identical for any value")
		resume     = flag.String("resume", "", "JSONL manifest: checkpoint completed points and skip them on rerun")
		verbose    = flag.Bool("v", false, "log per-point telemetry (wall time, cycles/sec) to stderr")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile taken after the sweep to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	base := config.Default()
	if *configPath != "" {
		var err error
		if base, err = config.Load(*configPath); err != nil {
			log.Fatal(err)
		}
	}
	if *topoName != "" {
		base.Topology = *topoName
		if err := base.Validate(); err != nil {
			log.Fatal(err)
		}
	}
	schemes, err := parseSchemes(*schemesStr)
	if err != nil {
		log.Fatal(err)
	}
	rates, err := parseRates(*ratesStr)
	if err != nil {
		log.Fatal(err)
	}

	var w io.Writer = os.Stdout
	var f *os.File
	if *out != "" {
		if f, err = os.Create(*out); err != nil {
			log.Fatal(err)
		}
		w = f
	}
	opt := harness.Options{Parallel: *parallel, Manifest: *resume}
	if *verbose {
		opt.OnDone = func(r harness.Result) {
			if r.Cached {
				log.Printf("%s: cached (manifest)", r.Name)
				return
			}
			log.Printf("%s: %v (%.0f cycles/sec)", r.Name, r.Telemetry.Duration().Round(time.Millisecond), r.Telemetry.CyclesPerSec)
		}
	}
	err = sweep(context.Background(), base, schemes, rates, *saturate, *workers, opt, w)
	// Every exit path closes and checks the output file: an error after
	// partial rows must not leave a silently truncated artifact behind.
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		log.Fatal(err)
	}
}

// sweep builds the grid, runs it through the harness, and renders the
// merged results as CSV. The writer is flushed and checked before
// returning on every path.
func sweep(ctx context.Context, base config.Experiment, schemes []scheme, rates []float64, saturate bool, tickWorkers int, opt harness.Options, w io.Writer) error {
	jobs := buildJobs(base, schemes, rates, saturate, tickWorkers)
	results, err := harness.Run(ctx, jobs, opt)
	if err != nil {
		return err
	}
	rows, err := harness.DecodeAll[[]string](results)
	if err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(sweepHeader); err != nil {
		return err
	}
	for _, rec := range rows {
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// buildJobs expands the (scheme, rate) grid into harness jobs. Each
// job's spec is the fully resolved config.Experiment — including the
// sub-seed derived from the base seed and the point's coordinates — so
// the manifest invalidates exactly when the point's physics change.
// tickWorkers sets each simulation's parallel-tick width; it is a
// wall-clock knob with byte-identical output, so it deliberately stays
// out of the spec and never invalidates a manifest.
func buildJobs(base config.Experiment, schemes []scheme, rates []float64, saturate bool, tickWorkers int) []harness.Job {
	var jobs []harness.Job
	point := func(sc scheme, rate float64, max bool) harness.Job {
		e := base
		e.Allocator = sc.alloc
		e.VirtualInputs = sc.k
		e.Policy = "" // re-derive from k
		e.InjectionRate = rate
		e.MaxInjection = max
		offered := offeredLabel(rate, max)
		e.Seed = sim.DeriveSeed(base.Seed, "sweep", sc.alloc, strconv.Itoa(sc.k), offered)
		name := fmt.Sprintf("sweep/%s:%d/%s", sc.alloc, sc.k, offered)
		return harness.Job{
			Name:   name,
			Spec:   e,
			Cycles: int64(e.Warmup + e.Measure),
			Run: func(context.Context) (any, error) {
				cfg, err := e.Build()
				if err != nil {
					return nil, err
				}
				cfg.Workers = tickWorkers
				n, err := network.New(cfg)
				if err != nil {
					return nil, err
				}
				defer n.Close()
				n.Warmup(e.Warmup)
				s := n.Measure(e.Measure)
				return []string{
					sc.alloc, strconv.Itoa(sc.k), offered,
					fmt.Sprintf("%.3f", s.AvgLatency),
					strconv.FormatInt(s.P50Latency, 10),
					strconv.FormatInt(s.P99Latency, 10),
					fmt.Sprintf("%.5f", s.ThroughputFlits),
					fmt.Sprintf("%.5f", s.ThroughputPackets),
					fmt.Sprintf("%.3f", s.FairnessRatio),
				}, nil
			},
		}
	}
	for _, sc := range schemes {
		for _, rate := range rates {
			jobs = append(jobs, point(sc, rate, false))
		}
		if saturate {
			jobs = append(jobs, point(sc, 0, true))
		}
	}
	return jobs
}

// offeredLabel formats the offered-load column: "saturation" for
// max-injection points.
func offeredLabel(rate float64, max bool) string {
	if max {
		return "saturation"
	}
	return fmt.Sprintf("%g", rate)
}

// parseSchemes parses comma-separated allocator:k pairs, rejecting
// unknown allocators and impossible crossbar geometry up front — the
// same checks config.Experiment.Validate applies to a spec file —
// so a typo fails before any point simulates.
func parseSchemes(s string) ([]scheme, error) {
	var schemes []scheme
	for _, part := range strings.Split(s, ",") {
		name, kStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad scheme %q: want allocator:k", part)
		}
		k, err := strconv.Atoi(kStr)
		if err != nil {
			return nil, fmt.Errorf("bad virtual-input count in %q: %v", part, err)
		}
		if k < 1 {
			return nil, fmt.Errorf("bad scheme %q: virtual-input count must be at least 1", part)
		}
		if !alloc.Known(alloc.Kind(name)) {
			return nil, fmt.Errorf("bad scheme %q: unknown allocator %q (want one of %v)", part, name, alloc.Kinds())
		}
		schemes = append(schemes, scheme{alloc: name, k: k})
	}
	return schemes, nil
}

// parseRates parses comma-separated injection rates, bounds-checked the
// way config.Experiment.Validate bounds injection_rate.
func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, r := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(r), 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q: %v", r, err)
		}
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("bad rate %q: injection rate is packets/cycle/node in [0, 1]", r)
		}
		rates = append(rates, v)
	}
	return rates, nil
}
