// Command figures regenerates the paper's tables and figures and this
// repository's ablation studies, one table per artefact named on the
// command line:
//
//	figures fig8                   # Figure 8 at full scale
//	figures -plot -parallel 4 fig8 # with ASCII charts, four workers
//	figures -scaling all           # everything, in paper order
//	figures -warmup 200 -measure 600 fig10 ksweep
//
// Several names print one after the other, in the order given; "all"
// stands for every artefact in the order of the table below. -warmup
// and -measure left unset take each artefact's own default windows.
// Every artefact that simulates a network but table4 (fig8 to fig12 and
// the six ablation studies) is a grid of config.Experiment points: it
// fans them out across -parallel workers through internal/harness and
// prints a byte-identical table whatever the worker count, -resume
// checkpoints completed points to a JSONL manifest so an interrupted
// run picks up where it stopped, and -v logs each point as it finishes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"vix/internal/cli"
	"vix/internal/config"
	"vix/internal/experiments"
	"vix/internal/harness"
	"vix/internal/topology"
)

// env is what an artefact's run-and-print function gets: the resolved
// simulation parameters, the harness options, and the artefact-specific
// flags.
type env struct {
	ctx context.Context
	p   experiments.Params
	opt harness.Options

	scaling bool               // delay
	plot    bool               // fig8
	topo    *topology.Topology // fig11
	rate    float64            // fig11
	list    bool               // table4
}

// artefact is one row of the table: a name, what it regenerates, the
// windows it runs at when -warmup/-measure are unset, the flags it
// reads that not every artefact does, and the function that runs it and
// prints its table.
type artefact struct {
	name, paper     string
	warmup, measure int
	reads           []string
	run             func(io.Writer, *env) error
}

// grid is what a harness-backed artefact reads: the harness flags and
// its own.
func grid(own ...string) []string { return append(own, "parallel", "resume", "v") }

// artefacts is the table, in the paper's order ("all" runs it top to
// bottom).
var artefacts = []artefact{
	{"delay", "Tables 1 & 3: pipeline stage and allocator delays (analytic)", 0, 0, []string{"scaling"}, printDelay},
	{"fig7", "Figure 7: single-router switch allocation efficiency", 2000, 20000, nil, printFig7},
	{"fig8", "Figure 8: mesh latency and throughput versus offered load", 2000, 8000, grid("plot"), printFig8},
	{"fig9", "Figure 9: fairness on a saturated mesh", 3000, 15000, grid(), printFig9},
	{"fig10", "Figure 10: packet chaining comparison", 2000, 10000, grid(), printFig10},
	{"fig11", "Figure 11: network energy per bit", 2000, 10000, grid("topo", "rate"), printFig11},
	{"fig12", "Figure 12: impact of increasing virtual inputs", 2000, 6000, grid(), printFig12},
	{"table4", "Table 4: application-level performance", 1500, 10000, []string{"list"}, printTable4},
	{"policies", "ablation: VC-assignment policy under adversarial traffic", 1500, 5000, grid(), study(printPolicies)},
	{"partition", "ablation: VC-to-sub-group partition", 1500, 5000, grid(), study(printPartition)},
	{"pipeline", "ablation: router pipeline depth", 1500, 5000, grid(), study(printPipeline)},
	{"speculation", "ablation: speculative switch allocation", 1500, 5000, grid(), study(printSpeculation)},
	{"ksweep", "ablation: fine-grained virtual-input sweep", 1500, 5000, grid(), study(printKSweep)},
	{"allocators", "ablation: extended allocator set", 1500, 5000, grid(), study(printAllocators)},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: 0 on success, 1 when an artefact fails, 2
// on a usage error (bad flag value, unknown artefact, a flag no selected
// artefact reads) — reported before anything simulates.
func run(args []string, stdout, stderr io.Writer) int {
	logger := log.New(stderr, "figures: ", 0)
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		warmup     = fs.Int("warmup", 0, "warmup cycles (default: the artefact's own)")
		measure    = fs.Int("measure", 0, "measurement cycles (default: the artefact's own)")
		seed       = fs.Uint64("seed", 1, "random seed")
		parallel   = fs.Int("parallel", 0, "grid artefacts: worker count (default GOMAXPROCS)")
		resume     = fs.String("resume", "", "grid artefacts: JSONL manifest, checkpoint completed points and skip them on rerun")
		verbose    = fs.Bool("v", false, "grid artefacts: log per-point telemetry (wall time, cycles/sec) to stderr")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile taken after the run to this file")
		scaling    = fs.Bool("scaling", false, "delay: also print the high-radix VIX feasibility study")
		plot       = fs.Bool("plot", false, "fig8: render ASCII latency and throughput charts")
		topoName   = fs.String("topo", "mesh", "fig11: topology, mesh (the paper's), cmesh, or fbfly")
		rate       = fs.Float64("rate", 0.1, "fig11: injection rate in packets/cycle/node")
		list       = fs.Bool("list", false, "table4: list the benchmark catalog instead")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: figures [flags] <artefact>... | all")
		for _, a := range artefacts {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.name, a.paper)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })

	selected, err := selectArtefacts(fs.Args())
	if err != nil {
		logger.Print(err)
		return 2
	}
	// Every problem with the command line is reported, then nothing runs.
	misused := false
	reject := func(format string, args ...any) {
		logger.Printf(format, args...)
		misused = true
	}
	read := map[string]bool{}
	for _, a := range selected {
		for _, name := range a.reads {
			read[name] = true
		}
	}
	for _, a := range artefacts {
		for _, name := range a.reads {
			if given[name] && !read[name] {
				reject("-%s is given but no selected artefact reads it", name)
				read[name] = true // one report per flag
			}
		}
	}

	e := &env{
		ctx:     context.Background(),
		p:       experiments.DefaultParams(),
		opt:     harness.Options{Parallel: *parallel, Manifest: *resume},
		scaling: *scaling, plot: *plot, rate: *rate, list: *list,
	}
	e.p.Seed = *seed
	if *verbose {
		e.opt.OnDone = cli.Progress(logger)
	}
	for _, t := range experiments.Topologies() {
		if string(t.Kind) == *topoName {
			e.topo = t
		}
	}
	if e.topo == nil {
		reject("invalid -topo value: unknown topology %q; want mesh, cmesh, or fbfly", *topoName)
	}
	// Negated so that NaN, which compares false to everything, is rejected.
	if !(*rate >= 0 && *rate <= 1) {
		reject("invalid -rate value: must be in [0, 1] packets/cycle/node, got %g", *rate)
	}
	// -warmup/-measure replace an artefact's own windows only when given.
	// Judge what was typed once, over defaults known to be valid, before
	// anything simulates.
	windows := func(p *experiments.Params) {
		if given["warmup"] {
			p.Warmup = *warmup
		}
		if given["measure"] {
			p.Measure = *measure
		}
	}
	typed := e.p
	windows(&typed)
	var ve config.ValidationError
	if err := typed.Validate(); errors.As(err, &ve) {
		for _, fe := range ve {
			reject("invalid -%s value: %s", fe.Field, fe.Msg)
		}
	}
	if misused {
		return 2
	}

	stop, err := cli.Profile(*cpuprofile, *memprofile)
	if err != nil {
		logger.Print(err)
		return 1
	}
	status := 0
	for _, a := range selected {
		e.p.Warmup, e.p.Measure = a.warmup, a.measure
		windows(&e.p)
		if err := a.run(stdout, e); err != nil {
			logger.Printf("%s: %v", a.name, err)
			status = 1
			break
		}
	}
	if err := stop(); err != nil {
		logger.Print(err)
		status = 1
	}
	return status
}

// selectArtefacts resolves the command line's names against the table,
// expanding "all" in place.
func selectArtefacts(names []string) ([]artefact, error) {
	var valid []string
	for _, a := range artefacts {
		valid = append(valid, a.name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no artefact named; want all or any of %s", strings.Join(valid, ", "))
	}
	var selected []artefact
next:
	for _, name := range names {
		if name == "all" {
			selected = append(selected, artefacts...)
			continue
		}
		for _, a := range artefacts {
			if a.name == name {
				selected = append(selected, a)
				continue next
			}
		}
		return nil, fmt.Errorf("unknown artefact %q; want all or any of %s", name, strings.Join(valid, ", "))
	}
	return selected, nil
}
