// Quickstart: simulate an 8x8 mesh twice — once with the conventional
// separable input-first allocator and once with VIX (two virtual inputs
// per port) — and print the latency and throughput of both under the same
// near-saturation load.
package main

import (
	"fmt"
	"log"

	"vix"
)

func run(e vix.Experiment) vix.Snapshot {
	s, err := e.Run()
	if err != nil {
		log.Fatal(err)
	}
	return s
}

func main() {
	// The default spec is the paper's 8x8 mesh: 6 VCs x 5 flits, separable
	// input-first allocation, uniform random 4-flit (512-bit over a
	// 128-bit datapath) packets, 2000 warm-up and 6000 measured cycles.
	baseline := vix.DefaultExperiment()
	baseline.InjectionRate = 0.09 // packets/cycle/node, near mesh saturation
	baseline.Policy = "maxfree"
	withVIX := baseline
	withVIX.VirtualInputs = 2
	withVIX.Policy = "balanced" // dimension-aware + load-balanced VC assignment

	base := run(baseline)
	vixRes := run(withVIX)

	fmt.Println("8x8 mesh, uniform random, 0.09 packets/cycle/node, 6 VCs x 5 flits")
	fmt.Printf("%-22s %12s %12s\n", "", "baseline IF", "VIX (k=2)")
	fmt.Printf("%-22s %12.2f %12.2f\n", "avg latency (cycles)", base.AvgLatency, vixRes.AvgLatency)
	fmt.Printf("%-22s %12.4f %12.4f\n", "flits/cycle/node", base.ThroughputFlits, vixRes.ThroughputFlits)
	fmt.Printf("%-22s %12.2f %12.2f\n", "fairness (max/min)", base.FairnessRatio, vixRes.FairnessRatio)
	fmt.Printf("\nVIX latency change at this load: %+.1f%%\n",
		100*(vixRes.AvgLatency/base.AvgLatency-1))
}
