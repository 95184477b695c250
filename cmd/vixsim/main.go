// Command vixsim runs one network-on-chip simulation with a fully
// configurable topology, switch allocator, crossbar geometry, traffic
// pattern, and load, and prints the measured latency, throughput, and
// fairness.
//
// Examples:
//
//	vixsim -topo mesh -alloc if -k 2 -rate 0.08
//	vixsim -topo fbfly -alloc wavefront -pattern transpose -max
//	vixsim -config configs/mesh_vix.json -seed 7
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"vix/internal/alloc"
	"vix/internal/config"
	"vix/internal/traffic"
)

// flagForField maps a spec's JSON field path to the CLI flag that sets
// it, so validation errors point at what the user actually typed.
func flagForField(field string) string {
	switch field {
	case "topology":
		return "topo"
	case "allocator":
		return "alloc"
	case "virtual_inputs":
		return "k"
	case "buf_depth":
		return "depth"
	case "injection_rate":
		return "rate"
	case "packet_size":
		return "pkt"
	default:
		return field
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: 0 on success, 1 when the run fails, 2 on a
// usage error (bad flag, unreadable -config, a spec Validate refuses).
func run(args []string, stdout, stderr io.Writer) int {
	logger := log.New(stderr, "vixsim: ", 0)
	fs := flag.NewFlagSet("vixsim", flag.ContinueOnError)
	fs.SetOutput(stderr)

	// Every spec flag defaults to the paper's configuration, config.Default.
	exp := config.Default()
	configPath := fs.String("config", "", "JSON experiment file used as the base spec; flags given explicitly override its fields")
	fs.StringVar(&exp.Topology, "topo", exp.Topology, "topology: mesh, torus, cmesh, or fbfly")
	fs.StringVar(&exp.Allocator, "alloc", exp.Allocator, fmt.Sprintf("allocator, one of %v", alloc.Kinds()))
	fs.IntVar(&exp.VirtualInputs, "k", exp.VirtualInputs, "virtual inputs per port (1 = baseline, 2 = VIX)")
	fs.IntVar(&exp.VCs, "vcs", exp.VCs, "virtual channels per port")
	fs.IntVar(&exp.BufDepth, "depth", exp.BufDepth, "buffer depth per VC in flits")
	fs.StringVar(&exp.Policy, "policy", exp.Policy, "VC assignment policy: maxfree, dimension, balanced (default: balanced when k > 1)")
	fs.StringVar(&exp.Partition, "partition", exp.Resolved().Partition, "VC sub-group partition: contiguous or interleaved")
	fs.StringVar(&exp.Pattern, "pattern", exp.Pattern, fmt.Sprintf("traffic pattern, one of %v", traffic.Names()))
	fs.Float64Var(&exp.InjectionRate, "rate", exp.InjectionRate, "injection rate in packets/cycle/node")
	fs.BoolVar(&exp.MaxInjection, "max", exp.MaxInjection, "saturate every source (ignore -rate)")
	fs.IntVar(&exp.PacketSize, "pkt", exp.PacketSize, "packet size in flits")
	fs.IntVar(&exp.Warmup, "warmup", exp.Warmup, "warmup cycles")
	fs.IntVar(&exp.Measure, "measure", exp.Measure, "measurement cycles")
	fs.Uint64Var(&exp.Seed, "seed", exp.Seed, "random seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *configPath != "" {
		// The file replaces the defaults; parsing again writes the flags
		// given explicitly over its fields, and cannot fail the second time.
		var err error
		if exp, err = config.Load(*configPath); err != nil {
			logger.Print(err)
			return 2
		}
		fs.Parse(args)
	}

	// Validate before building: the structured errors name each bad
	// field by its JSON path, one line per problem.
	if err := exp.Validate(); err != nil {
		var ve config.ValidationError
		if !errors.As(err, &ve) {
			logger.Print(err)
			return 2
		}
		for _, fe := range ve {
			logger.Printf("invalid -%s value: %s", flagForField(fe.Field), fe.Msg)
		}
		return 2
	}

	s, err := exp.Run()
	if err != nil {
		logger.Print(err)
		return 1
	}
	// The resolved spec and topology, for the header only.
	cfg, err := exp.Build()
	if err != nil {
		logger.Print(err)
		return 1
	}
	r := exp.Resolved()

	topo := cfg.Topology
	fmt.Fprintf(stdout, "topology            %s (radix %d, %d routers, %d nodes)\n", topo.Name, topo.Radix, topo.NumRouters, topo.NumNodes)
	fmt.Fprintf(stdout, "allocator           %s (k=%d, %d VCs x %d flits, policy %s, %s partition)\n",
		r.Allocator, r.VirtualInputs, r.VCs, r.BufDepth, r.Policy, r.Partition)
	if exp.MaxInjection {
		fmt.Fprintf(stdout, "offered load        saturated (%d-flit packets, %s)\n", r.PacketSize, r.Pattern)
	} else {
		fmt.Fprintf(stdout, "offered load        %.4f packets/cycle/node (%d-flit packets, %s)\n", exp.InjectionRate, r.PacketSize, r.Pattern)
	}
	fmt.Fprintf(stdout, "measured            %d cycles after %d warmup\n", exp.Measure, exp.Warmup)
	fmt.Fprintf(stdout, "avg packet latency  %.2f cycles (p50 %d, p99 %d, max %d)\n", s.AvgLatency, s.P50Latency, s.P99Latency, s.MaxLatency)
	fmt.Fprintf(stdout, "throughput          %.4f flits/cycle/node (%.4f packets/cycle/node)\n", s.ThroughputFlits, s.ThroughputPackets)
	fmt.Fprintf(stdout, "avg hops            %.2f\n", s.AvgHops)
	fmt.Fprintf(stdout, "fairness (max/min)  %.2f\n", s.FairnessRatio)
	fmt.Fprintf(stdout, "packets             %d injected, %d delivered\n", s.PacketsInjected, s.PacketsEjected)
	return 0
}
