package network

import (
	"reflect"
	"testing"

	"vix/internal/alloc"
	"vix/internal/router"
	"vix/internal/stats"
	"vix/internal/topology"
	"vix/internal/traffic"
)

// activityCase is one Step-vs-stepDense lockstep scenario.
type activityCase struct {
	name     string
	topo     func() *topology.Topology
	kind     alloc.Kind
	k        int
	saturate bool // MaxInjection instead of a low Bernoulli rate
	nonSpec  bool // Router.NonSpeculative
	burst    bool // a Workload that injects for a quarter of the run, then drains
}

// A schedule picks each cycle's stepper in a lockstep run: stepDense
// where it returns true, Step elsewhere.
type schedule func(cycle int) bool

// mixBurst is the length of mixedBursts' runs of each stepper: prime, so
// the switches fall at every phase of the wavefront diagonal and the VA
// rotation.
const mixBurst = 37

var (
	allGated    schedule = func(int) bool { return false }
	allDense    schedule = func(int) bool { return true }
	mixedBursts schedule = func(c int) bool { return c/mixBurst%2 == 1 } // Step first
)

// runActivity runs one scenario at the given worker count under the
// checker, stepping each cycle as sched says, and returns the full
// ejection sequence plus the snapshot.
func runActivity(t *testing.T, tc activityCase, workers int, sched schedule, cycles int) (*ejectLog, stats.Snapshot) {
	t.Helper()
	topo := tc.topo()
	policy := router.PolicyMaxFree
	if tc.k > 1 {
		policy = router.PolicyBalanced
	}
	cfg := meshConfig(topo, tc.kind, tc.k, policy)
	cfg.Seed = 11
	cfg.Workers = workers
	cfg.Router.NonSpeculative = tc.nonSpec
	switch {
	case tc.burst:
		cfg.Pattern, cfg.InjectionRate = nil, 0
		cfg.Workload = &burstWorkload{
			until: int64(cycles) / 4, rate: 0.1,
			pattern: traffic.NewUniform(topo.NumNodes), size: 4,
		}
	case tc.saturate:
		cfg.InjectionRate, cfg.MaxInjection = 0, true
	default:
		cfg.InjectionRate = 0.01 // low load: most routers idle most cycles
	}
	ejected := newEjectLog()
	cfg.OnEject = ejected.record
	c := newChecked(t, cfg)
	// At saturation every router's VC-state masks change every cycle:
	// check the network after each step, in every mode the case runs in.
	// Otherwise the checker sees only the ejections.
	for i := range cycles {
		if tc.saturate {
			if err := c.run(1, sched(i)); err != nil {
				t.Fatal(err)
			}
		} else {
			c.n.run(1, sched(i))
		}
	}
	if c.err != nil {
		t.Fatal(c.err)
	}
	return ejected, c.n.Collector().Snapshot()
}

// TestActivityGateLockstepWithDense is the tentpole guarantee of the
// activity-driven tick: for every topology, allocator, load point, and
// worker count, Step produces bit-identical statistics and the exact same
// ejection sequence as stepDense. Skipping idle routers and NIs is a
// wall-clock matter, never a physics one — exactly the standard the
// worker count is held to. So the two steppers may be mixed: bursts of
// Step alternating with bursts of stepDense match too, as a router that
// sat out idle cycles under Step is then ticked by stepDense.
func TestActivityGateLockstepWithDense(t *testing.T) {
	cases := []activityCase{
		{name: "mesh8x8_if_low", topo: func() *topology.Topology { return topology.NewMesh(8, 8) },
			kind: alloc.KindSeparableIF, k: 2},
		{name: "mesh8x8_wavefront_sat", topo: func() *topology.Topology { return topology.NewMesh(8, 8) },
			kind: alloc.KindWavefront, k: 1, saturate: true},
		{name: "mesh8x8_pc_low", topo: func() *topology.Topology { return topology.NewMesh(8, 8) },
			kind: alloc.KindPacketChaining, k: 2},
		{name: "fbfly2x2c4_if_low", topo: func() *topology.Topology { return topology.NewFBfly(2, 2, 4) },
			kind: alloc.KindSeparableIF, k: 2},
		{name: "cmesh2x2c4_wavefront_burst", topo: func() *topology.Topology { return topology.NewCMesh(2, 2, 4) },
			kind: alloc.KindWavefront, k: 2, burst: true},
		{name: "torus4x4_if_sat", topo: func() *topology.Topology { return topology.NewTorus(4, 4) },
			kind: alloc.KindSeparableIF, k: 2, saturate: true},
		{name: "mesh4x4_if_nonspec_sat", topo: func() *topology.Topology { return topology.NewMesh(4, 4) },
			kind: alloc.KindSeparableIF, k: 2, saturate: true, nonSpec: true},
	}
	const cycles = 2000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The reference is the dense loop — the physics the repo's
			// goldens were recorded against.
			refEjects, refSnap := runActivity(t, tc, 1, allDense, cycles)
			if refEjects.count() == 0 {
				t.Fatal("dense reference run ejected nothing; workload broken")
			}
			check := func(what string, workers int, sched schedule) {
				ejects, snap := runActivity(t, tc, workers, sched, cycles)
				if !reflect.DeepEqual(snap, refSnap) {
					t.Errorf("%s workers=%d snapshot diverged:\n got %+v\nwant %+v", what, workers, snap, refSnap)
				}
				if i := ejects.diverge(refEjects); i >= 0 {
					t.Errorf("%s workers=%d ejection sequence diverged at index %d (%d flits ejected, want %d)",
						what, workers, i, ejects.count(), refEjects.count())
				}
			}
			for _, workers := range lockstepWorkers {
				check("gated", workers, allGated)
				check("mixed", workers, mixedBursts)
			}
		})
	}
}

// TestActivityGateSkipsIdleRouters checks the gate actually gates: at low
// load on a 16x16 mesh, the number of router ticks executed must be far
// below routers x cycles, or the worklist is pure overhead.
func TestActivityGateSkipsIdleRouters(t *testing.T) {
	topo := topology.NewMesh(16, 16)
	cfg := meshConfig(topo, alloc.KindSeparableIF, 2, router.PolicyBalanced)
	cfg.InjectionRate = 0.005
	cfg.Seed = 3
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	const cycles = 1000
	n.Run(cycles)
	dense := int64(topo.NumRouters) * cycles
	got := n.RouterTicks()
	if got == 0 {
		t.Fatal("no router ticks recorded; counter broken")
	}
	if got > dense/2 {
		t.Errorf("run executed %d router ticks of %d dense; idle routers are not being skipped", got, dense)
	}
}
