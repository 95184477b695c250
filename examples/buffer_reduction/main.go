// Buffer reduction (Section 4.6 of the paper): VIX's throughput headroom
// can be traded for smaller routers. This example compares a baseline
// router with 6 VCs per port against a VIX router with only 4 VCs per
// port — 33% fewer buffers — and shows the smaller VIX router still wins
// on saturation throughput.
package main

import (
	"fmt"
	"log"

	"vix"
)

func saturation(vcs, virtualInputs int) vix.Snapshot {
	e := vix.DefaultExperiment() // 8x8 mesh, 5-flit buffers, 4-flit packets
	e.VCs, e.VirtualInputs = vcs, virtualInputs
	e.MaxInjection, e.InjectionRate = true, 0 // saturate every source
	// The policy is left to the spec's default: maxfree at k = 1,
	// balanced once there are virtual inputs to balance.
	s, err := e.Run()
	if err != nil {
		log.Fatal(err)
	}
	return s
}

func main() {
	big := saturation(6, 1)   // baseline: 6 VCs, conventional crossbar
	small := saturation(4, 2) // VIX: 4 VCs, two virtual inputs per port

	bufBig, bufSmall := 6*5, 4*5 // flit buffers per port
	fmt.Println("Trading VIX headroom for buffers (8x8 mesh at saturation)")
	fmt.Printf("%-28s %14s %14s\n", "", "6 VCs, no VIX", "4 VCs, 1:2 VIX")
	fmt.Printf("%-28s %14d %14d\n", "flit buffers per port", bufBig, bufSmall)
	fmt.Printf("%-28s %14.4f %14.4f\n", "throughput (flits/cyc/node)", big.ThroughputFlits, small.ThroughputFlits)
	fmt.Printf("%-28s %14.2f %14.2f\n", "avg latency (cycles)", big.AvgLatency, small.AvgLatency)
	fmt.Printf("\nVIX with %.0f%% fewer buffers changes throughput by %+.1f%% (paper: -33%% buffers, +10%% throughput).\n",
		100*(1-float64(bufSmall)/float64(bufBig)),
		100*(small.ThroughputFlits/big.ThroughputFlits-1))
}
