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

	var (
		configPath = flag.String("config", "", "JSON experiment file (overrides the other flags)")
		topoName   = flag.String("topo", "mesh", "topology: mesh, torus, cmesh, or fbfly")
		allocStr   = flag.String("alloc", "if", fmt.Sprintf("allocator, one of %v", alloc.Kinds()))
		k          = flag.Int("k", 1, "virtual inputs per port (1 = baseline, 2 = VIX)")
		vcs        = flag.Int("vcs", 6, "virtual channels per port")
		depth      = flag.Int("depth", 5, "buffer depth per VC in flits")
		policy     = flag.String("policy", "", "VC assignment policy: maxfree, dimension, balanced (default: balanced when k > 1)")
		partition  = flag.String("partition", "contiguous", "VC sub-group partition: contiguous or interleaved")
		pattern    = flag.String("pattern", "uniform", fmt.Sprintf("traffic pattern, one of %v", traffic.Names()))
		rate       = flag.Float64("rate", 0.05, "injection rate in packets/cycle/node")
		maxInj     = flag.Bool("max", false, "saturate every source (ignore -rate)")
		pktSize    = flag.Int("pkt", 4, "packet size in flits")
		warmup     = flag.Int("warmup", 2000, "warmup cycles")
		measure    = flag.Int("measure", 6000, "measurement cycles")
		seed       = flag.Uint64("seed", 1, "random seed")
		workers    = flag.Int("workers", 1, "parallel-tick workers (1 serial, <0 GOMAXPROCS); output is byte-identical for any value")
	)
	flag.Parse()

	exp := config.Default()
	if *configPath != "" {
		var err error
		if exp, err = config.Load(*configPath); err != nil {
			log.Fatal(err)
		}
	} else {
		exp.Topology = *topoName
		exp.Allocator = *allocStr
		exp.VirtualInputs = *k
		exp.VCs = *vcs
		exp.BufDepth = *depth
		exp.Policy = *policy
		exp.Partition = *partition
		exp.Pattern = *pattern
		exp.InjectionRate = *rate
		exp.MaxInjection = *maxInj
		exp.PacketSize = *pktSize
		exp.Warmup = *warmup
		exp.Measure = *measure
		exp.Seed = *seed
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

	s, err := exp.Run(*workers)
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
