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
// Every point of every selected grid is built and validated before the
// first one simulates, so a flag value the simulator would refuse is a
// usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"vix/internal/cli"
	"vix/internal/config"
	"vix/internal/experiments"
	"vix/internal/harness"
	"vix/internal/stats"
	"vix/internal/store"
	"vix/internal/topology"
)

// env is what an artefact's grid builder and printer get: its base spec
// and the artefact-specific flags.
type env struct {
	base config.Experiment // config.Default at the artefact's windows and -seed

	scaling bool               // delay
	plot    bool               // fig8
	topo    *topology.Topology // fig11
	rate    float64            // fig11
	list    bool               // table4
}

// grid is an artefact's simulation points; printer writes its table from
// them and their snapshots, both nil for an artefact that is not a grid.
type (
	grid    = []experiments.GridPoint
	printer func(w io.Writer, e *env, pts grid, snaps []stats.Snapshot) error
)

// artefact is one row of the table: a name, what it regenerates, the
// windows it runs at when -warmup/-measure are unset (none for delay),
// the flags it reads that not every artefact does, the grid builder of a
// harness grid (nil for the three that are not), and its printer.
type artefact struct {
	name, paper     string
	warmup, measure int
	reads           []string
	grid            func(*env) grid
	print           printer
}

// flags are the flags a reads that not every artefact does: its own, the
// windows' and seed's when it simulates, and the harness's when it is a
// grid.
func (a artefact) flags() []string {
	flags := slices.Clip(a.reads)
	if a.measure > 0 {
		flags = append(flags, "warmup", "measure", "seed")
	}
	if a.grid != nil {
		flags = append(flags, "parallel", "resume", "v")
	}
	return flags
}

// artefacts is the table, in the paper's order ("all" runs it top to
// bottom).
var artefacts = []artefact{
	{"delay", "Tables 1 & 3: pipeline stage and allocator delays (analytic)", 0, 0, []string{"scaling"}, nil, printDelay},
	{"fig7", "Figure 7: single-router switch allocation efficiency", 2000, 20000, nil, nil, printFig7},
	{"fig8", "Figure 8: mesh latency and throughput versus offered load", 2000, 8000, []string{"plot"},
		func(e *env) grid { return experiments.Figure8Grid(e.base) }, printFig8},
	{"fig9", "Figure 9: fairness on a saturated mesh", 3000, 15000, nil,
		func(e *env) grid { return experiments.Figure9Grid(e.base) }, printFig9},
	{"fig10", "Figure 10: packet chaining comparison", 2000, 10000, nil,
		func(e *env) grid { return experiments.Figure10Grid(e.base) }, printFig10},
	{"fig11", "Figure 11: network energy per bit", 2000, 10000, []string{"topo", "rate"},
		func(e *env) grid { return experiments.EnergyGrid(e.base, e.topo, e.rate) }, printFig11},
	{"fig12", "Figure 12: impact of increasing virtual inputs", 2000, 6000, nil,
		func(e *env) grid { return experiments.Figure12Grid(e.base) }, printFig12},
	{"table4", "Table 4: application-level performance", 1500, 10000, []string{"list"}, nil, printTable4},
	{"policies", "ablation: VC-assignment policy under adversarial traffic", 1500, 5000, nil,
		func(e *env) grid { return experiments.PoliciesGrid(e.base) }, study(printPolicies)},
	{"partition", "ablation: VC-to-sub-group partition", 1500, 5000, nil,
		func(e *env) grid { return experiments.PartitionGrid(e.base) }, study(printPartition)},
	{"pipeline", "ablation: router pipeline depth", 1500, 5000, nil,
		func(e *env) grid { return experiments.PipelineGrid(e.base) }, study(printPipeline)},
	{"speculation", "ablation: speculative switch allocation", 1500, 5000, nil,
		func(e *env) grid { return experiments.SpeculationGrid(e.base) }, study(printSpeculation)},
	{"ksweep", "ablation: fine-grained virtual-input sweep", 1500, 5000, nil,
		func(e *env) grid { return experiments.KSweepGrid(e.base) }, study(printKSweep)},
	{"allocators", "ablation: extended allocator set", 1500, 5000, nil,
		func(e *env) grid { return experiments.AllocatorsGrid(e.base) }, study(printAllocators)},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: 0 on success, 1 when an artefact fails, 2
// on a usage error (bad flag value, unknown artefact, a flag no selected
// artefact reads) — reported before anything simulates.
func run(args []string, stdout, stderr io.Writer) int {
	logger := log.New(stderr, "figures: ", 0)
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	topos := experiments.Topologies() // fig11 runs on these
	fig11 := make([]topology.Kind, len(topos))
	for i, t := range topos {
		fig11[i] = t.Kind
	}
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
		topoName   = fs.String("topo", string(topology.KindMesh), fmt.Sprintf("fig11: topology, one of %v (the default is the paper's)", fig11))
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
		for _, name := range a.flags() {
			read[name] = true
		}
	}
	for _, a := range artefacts {
		for _, name := range a.flags() {
			if given[name] && !read[name] {
				reject("-%s is given but no selected artefact reads it", name)
				read[name] = true // one report per flag
			}
		}
	}

	e := &env{scaling: *scaling, plot: *plot, rate: *rate, list: *list}
	if i := slices.Index(fig11, topology.Kind(*topoName)); i >= 0 {
		e.topo = topos[i]
	} else {
		reject("invalid -topo value: fig11 runs on one of %v, not %q", fig11, *topoName)
	}
	// A spec field the simulator refuses is reported against the flag
	// that set it, once however many points share the value.
	reported := map[string]bool{}
	invalid := func(err error, where string) {
		var ve config.ValidationError
		errors.As(err, &ve)
		for _, fe := range ve {
			msg := fmt.Sprintf("%s: %s", where, fe)
			if name := flagOf[fe.Field]; name != "" {
				msg = fmt.Sprintf("invalid -%s value: %s", name, fe.Msg)
			}
			if !reported[msg] {
				reject("%s", msg)
				reported[msg] = true
			}
		}
	}
	// -warmup/-measure replace an artefact's own windows only when given.
	// Judge what was typed once, over defaults known to be valid.
	windows := func(b *config.Experiment) {
		if given["warmup"] {
			b.Warmup = *warmup
		}
		if given["measure"] {
			b.Measure = *measure
		}
	}
	typed := config.Default()
	windows(&typed)
	invalid(typed.Validate(), "windows")
	if misused {
		return 2 // its grids may not even build (fig11 with no topology)
	}

	// Then build every selected grid and judge each of its points, as the
	// harness would, before the first artefact simulates.
	bases := make([]config.Experiment, len(selected))
	grids := make([]grid, len(selected))
	for i, a := range selected {
		bases[i] = config.Default()
		bases[i].Seed, bases[i].Warmup, bases[i].Measure = *seed, a.warmup, a.measure
		windows(&bases[i])
		if a.grid == nil {
			continue
		}
		e.base = bases[i]
		grids[i] = a.grid(e)
		for _, g := range grids[i] {
			invalid(g.Spec.Validate(), a.name+" "+strings.Join(g.Labels, "/"))
		}
	}
	if misused {
		return 2
	}

	// Every grid runs through one result store: the -resume file, or
	// memory when it is unset.
	st, err := store.Open(*resume)
	if err != nil {
		logger.Print(err)
		return 1
	}
	stop, err := cli.Profile(*cpuprofile, *memprofile)
	if err != nil {
		logger.Print(err)
		st.Close()
		return 1
	}
	opt := harness.Options{Parallel: *parallel, Store: st}
	if *verbose {
		opt.OnDone = cli.Progress(logger)
	}
	status := 0
	for i, a := range selected {
		e.base = bases[i]
		var snaps []stats.Snapshot
		if grids[i] != nil {
			snaps, err = experiments.RunGrid(context.Background(), grids[i], opt)
		}
		if err == nil {
			err = a.print(stdout, e, grids[i], snaps)
		}
		if err != nil {
			logger.Printf("%s: %v", a.name, err)
			status = 1
			break
		}
	}
	for _, done := range []func() error{st.Close, stop} {
		if err := done(); err != nil {
			logger.Print(err)
			status = 1
		}
	}
	return status
}

// flagOf names the flag that sets each spec field a grid point takes
// from the command line.
var flagOf = map[string]string{"warmup": "warmup", "measure": "measure", "injection_rate": "rate"}

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
