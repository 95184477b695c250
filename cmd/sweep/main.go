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
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"vix/internal/cli"
	"vix/internal/config"
	"vix/internal/harness"
	"vix/internal/sim"
	"vix/internal/store"
	"vix/internal/topology"
)

// scheme is one allocator:k coordinate of the grid.
type scheme struct {
	alloc string
	k     int
}

// sweepHeader is the CSV schema, stable across harness options.
var sweepHeader = []string{"allocator", "k", "offered_rate", "avg_latency", "p50_latency", "p99_latency", "throughput_flits", "throughput_packets", "fairness"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: 0 on success, 1 when a run fails, 2 on a
// usage error. Everything the command line can get wrong — including a
// grid point the simulator would refuse — is a usage error reported
// before the output file is created and before any point simulates.
func run(args []string, stdout, stderr io.Writer) int {
	logger := log.New(stderr, "sweep: ", 0)
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		configPath = fs.String("config", "", "JSON experiment file used as the base configuration")
		topoName   = fs.String("topo", "", fmt.Sprintf("override the base topology, one of %v", topology.Kinds()))
		schemesStr = fs.String("schemes", "if:1,wavefront:1,ap:1,if:2", "comma-separated allocator:k pairs")
		ratesStr   = fs.String("rates", "0.01,0.03,0.05,0.07,0.09", "comma-separated injection rates (packets/cycle/node)")
		saturate   = fs.Bool("sat", true, "append a saturation point per scheme")
		out        = fs.String("o", "", "output file (default stdout)")
		parallel   = fs.Int("parallel", 0, "worker count (default GOMAXPROCS)")
		resume     = fs.String("resume", "", "JSONL manifest: checkpoint completed points and skip them on rerun")
		verbose    = fs.Bool("v", false, "log per-point telemetry (wall time, cycles/sec) to stderr")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile taken after the sweep to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	jobs, err := grid(*configPath, *topoName, *schemesStr, *ratesStr, *saturate)
	if err != nil {
		logger.Print(err)
		return 2
	}
	st, err := store.Open(*resume)
	if err != nil {
		logger.Print(err)
		return 1
	}
	opt := harness.Options{Parallel: *parallel, Store: st}
	if *verbose {
		opt.OnDone = cli.Progress(logger)
	}
	err = write(jobs, opt, *out, *cpuprofile, *memprofile, stdout)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		logger.Print(err)
		return 1
	}
	return 0
}

// grid resolves the base spec and expands the command line's schemes
// and rates into validated jobs.
func grid(configPath, topo, schemesStr, ratesStr string, saturate bool) ([]harness.Job, error) {
	base := config.Default()
	if configPath != "" {
		var err error
		if base, err = config.Load(configPath); err != nil {
			return nil, err
		}
	}
	if topo != "" {
		base.Topology = topo
	}
	schemes, err := parseSchemes(schemesStr)
	if err != nil {
		return nil, err
	}
	rates, err := parseRates(ratesStr)
	if err != nil {
		return nil, err
	}
	return buildJobs(base, schemes, rates, saturate)
}

// write runs the jobs under the requested profiles and writes the CSV
// to the file out, or to stdout when out is empty.
func write(jobs []harness.Job, opt harness.Options, out, cpuprofile, memprofile string, stdout io.Writer) (err error) {
	stop, err := cli.Profile(cpuprofile, memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stop(); err == nil {
			err = perr
		}
	}()
	w := stdout
	if out != "" {
		f, cerr := os.Create(out)
		if cerr != nil {
			return cerr
		}
		// Every exit path closes and checks the output file: an error
		// after partial rows must not leave a silently truncated artifact
		// behind.
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		w = f
	}
	return sweep(context.Background(), jobs, opt, w)
}

// sweep runs the grid's jobs through the harness and renders the merged
// results as CSV. The writer is flushed and checked before returning on
// every path.
func sweep(ctx context.Context, jobs []harness.Job, opt harness.Options, w io.Writer) error {
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
// Every resolved point is validated here, so a scheme the simulator
// would refuse (if:7 on 6 VCs, ideal:2, sparoflo:2) is a field-path
// error naming the scheme, not a failure after the points before it
// have simulated. So is a point named twice (a repeated allocator:k, or
// two rates with one offered-load label): the harness would refuse the
// grid only after the output file was created.
func buildJobs(base config.Experiment, schemes []scheme, rates []float64, saturate bool) ([]harness.Job, error) {
	var jobs []harness.Job
	seen := make(map[string]bool)
	point := func(sc scheme, rate float64, max bool) error {
		e := base
		e.Allocator = sc.alloc
		e.VirtualInputs = sc.k
		e.Policy = "" // re-derive from k
		e.InjectionRate = rate
		e.MaxInjection = max
		if err := e.Validate(); err != nil {
			return fmt.Errorf("scheme %s:%d: %w", sc.alloc, sc.k, err)
		}
		offered := e.OfferedLabel()
		e.Seed = sim.DeriveSeed(base.Seed, "sweep", sc.alloc, strconv.Itoa(sc.k), offered)
		name := fmt.Sprintf("sweep/%s:%d/%s", sc.alloc, sc.k, offered)
		if seen[name] {
			return fmt.Errorf("scheme %s:%d at offered load %s is in the grid twice", sc.alloc, sc.k, offered)
		}
		seen[name] = true
		jobs = append(jobs, harness.Job{
			Name:   name,
			Spec:   e,
			Cycles: int64(e.Warmup + e.Measure),
			Run: func(context.Context) (any, error) {
				s, err := e.Run()
				if err != nil {
					return nil, err
				}
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
		})
		return nil
	}
	for _, sc := range schemes {
		for _, rate := range rates {
			if err := point(sc, rate, false); err != nil {
				return nil, err
			}
		}
		if saturate {
			if err := point(sc, 0, true); err != nil {
				return nil, err
			}
		}
	}
	return jobs, nil
}

// parseSchemes parses comma-separated allocator:k pairs, rejecting
// malformed pairs and a k below 1 (which the spec would resolve to 1);
// whether the allocator exists and the base configuration can carry its
// crossbar geometry is buildJobs' check.
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
		schemes = append(schemes, scheme{alloc: name, k: k})
	}
	return schemes, nil
}

// parseRates parses comma-separated injection rates; whether each is a
// rate the simulator accepts is buildJobs' check.
func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, r := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(r), 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q: %v", r, err)
		}
		rates = append(rates, v)
	}
	return rates, nil
}
