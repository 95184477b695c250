// Command vixsim runs one network-on-chip simulation with a fully
// configurable topology, switch allocator, crossbar geometry, traffic
// pattern, and load, and prints the measured latency, throughput, and
// fairness.
//
// Examples:
//
//	vixsim -topo mesh -alloc if -k 2 -rate 0.08
//	vixsim -topo fbfly -alloc wavefront -pattern transpose -max
package main

import (
	"errors"
	"flag"
	"fmt"
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

func main() {
	log.SetFlags(0)
	log.SetPrefix("vixsim: ")

	// Every spec flag defaults to the paper's configuration, config.Default.
	exp := config.Default()
	configPath := flag.String("config", "", "JSON experiment file (overrides the other flags)")
	flag.StringVar(&exp.Topology, "topo", exp.Topology, "topology: mesh, torus, cmesh, or fbfly")
	flag.StringVar(&exp.Allocator, "alloc", exp.Allocator, fmt.Sprintf("allocator, one of %v", alloc.Kinds()))
	flag.IntVar(&exp.VirtualInputs, "k", exp.VirtualInputs, "virtual inputs per port (1 = baseline, 2 = VIX)")
	flag.IntVar(&exp.VCs, "vcs", exp.VCs, "virtual channels per port")
	flag.IntVar(&exp.BufDepth, "depth", exp.BufDepth, "buffer depth per VC in flits")
	flag.StringVar(&exp.Policy, "policy", exp.Policy, "VC assignment policy: maxfree, dimension, balanced (default: balanced when k > 1)")
	flag.StringVar(&exp.Partition, "partition", exp.PartitionName(), "VC sub-group partition: contiguous or interleaved")
	flag.StringVar(&exp.Pattern, "pattern", exp.Pattern, fmt.Sprintf("traffic pattern, one of %v", traffic.Names()))
	flag.Float64Var(&exp.InjectionRate, "rate", exp.InjectionRate, "injection rate in packets/cycle/node")
	flag.BoolVar(&exp.MaxInjection, "max", exp.MaxInjection, "saturate every source (ignore -rate)")
	flag.IntVar(&exp.PacketSize, "pkt", exp.PacketSize, "packet size in flits")
	flag.IntVar(&exp.Warmup, "warmup", exp.Warmup, "warmup cycles")
	flag.IntVar(&exp.Measure, "measure", exp.Measure, "measurement cycles")
	flag.Uint64Var(&exp.Seed, "seed", exp.Seed, "random seed")
	flag.Parse()

	if *configPath != "" {
		var err error
		if exp, err = config.Load(*configPath); err != nil {
			log.Fatal(err)
		}
	}

	// Validate before building: the structured errors name each bad
	// field by its JSON path, one line per problem.
	if err := exp.Validate(); err != nil {
		var ve config.ValidationError
		if errors.As(err, &ve) {
			for _, fe := range ve {
				log.Printf("invalid -%s value: %s", flagForField(fe.Field), fe.Msg)
			}
			os.Exit(2)
		}
		log.Fatal(err)
	}

	s, err := exp.Run()
	if err != nil {
		log.Fatal(err)
	}
	// The resolved configuration, for the header only.
	cfg, err := exp.Build()
	if err != nil {
		log.Fatal(err)
	}

	topo := cfg.Topology
	fmt.Printf("topology            %s (radix %d, %d routers, %d nodes)\n", topo.Name, topo.Radix, topo.NumRouters, topo.NumNodes)
	fmt.Printf("allocator           %s (k=%d, %d VCs x %d flits, policy %s, %s partition)\n",
		cfg.Router.AllocKind, cfg.Router.VirtualInputs, cfg.Router.VCs, cfg.Router.BufDepth, cfg.Router.Policy, exp.PartitionName())
	if exp.MaxInjection {
		fmt.Printf("offered load        saturated (%d-flit packets, %s)\n", exp.PacketSize, cfg.Pattern.Name())
	} else {
		fmt.Printf("offered load        %.4f packets/cycle/node (%d-flit packets, %s)\n", exp.InjectionRate, exp.PacketSize, cfg.Pattern.Name())
	}
	fmt.Printf("measured            %d cycles after %d warmup\n", exp.Measure, exp.Warmup)
	fmt.Printf("avg packet latency  %.2f cycles (p50 %d, p99 %d, max %d)\n", s.AvgLatency, s.P50Latency, s.P99Latency, s.MaxLatency)
	fmt.Printf("throughput          %.4f flits/cycle/node (%.4f packets/cycle/node)\n", s.ThroughputFlits, s.ThroughputPackets)
	fmt.Printf("avg hops            %.2f\n", s.AvgHops)
	fmt.Printf("fairness (max/min)  %.2f\n", s.FairnessRatio)
	fmt.Printf("packets             %d injected, %d delivered\n", s.PacketsInjected, s.PacketsEjected)
}
