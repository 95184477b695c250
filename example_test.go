package vix_test

import (
	"fmt"

	"vix"
)

// Example demonstrates the basic simulation flow: describe a point as an
// Experiment — here the default 8x8 mesh with two virtual inputs (VIX) —
// run it, and read the measured statistics. Simulations are
// deterministic for a given seed.
func Example() {
	e := vix.DefaultExperiment()
	e.VirtualInputs = 2
	e.Warmup, e.Measure = 1000, 3000
	s, err := e.Run()
	if err != nil {
		panic(err)
	}
	fmt.Printf("accepted %.2f flits/cycle/node at offered 0.20\n", s.ThroughputFlits)
	fmt.Printf("latency within zero-load ballpark: %v\n", s.AvgLatency > 20 && s.AvgLatency < 40)
	// Output:
	// accepted 0.20 flits/cycle/node at offered 0.20
	// latency within zero-load ballpark: true
}

// ExampleLoadExperiment reads one of the shipped JSON experiments; the
// fields it leaves out take their defaults.
func ExampleLoadExperiment() {
	e, err := vix.LoadExperiment("configs/mesh_vix_saturation.json")
	if err != nil {
		panic(err)
	}
	fmt.Println(e.Topology, e.VirtualInputs, e.Allocator, e.MaxInjection, e.OfferedLabel())
	// Output:
	// mesh 2 if true saturation
}
