// Command cyclebench measures the serial cycle loop's raw throughput:
// cycles/sec of Network.Step on a saturated 8x8 VIX mesh — the inner loop
// every sweep, ablation, and Table 4 run is built from. It also reports
// heap allocations per cycle (runtime.MemStats deltas), the number the
// zero-allocation steady-state work drives to ~0.
//
// The emitted BENCH_cycle.json records a before-vs-after pair: the
// baseline cycles/sec is taken from -baseline, or, when the output file
// already exists, carried over from its baseline_cycles_per_sec field, so
// `make bench-json` refreshes the measurement while preserving the
// pre-optimization reference point.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"vix/internal/alloc"
	"vix/internal/network"
	"vix/internal/router"
	"vix/internal/stats"
	"vix/internal/topology"
	"vix/internal/traffic"
)

// report is the BENCH_cycle.json schema.
type report struct {
	Workload         string  `json:"workload"`
	WarmupCycles     int     `json:"warmup_cycles"`
	MeasureCycles    int     `json:"measure_cycles"`
	CPUs             int     `json:"cpus"`
	BaselineCycSec   float64 `json:"baseline_cycles_per_sec"`
	CycSec           float64 `json:"cycles_per_sec"`
	Speedup          float64 `json:"speedup"`
	MallocsPerCycle  float64 `json:"mallocs_per_cycle"`
	AllocBytesPerCyc float64 `json:"alloc_bytes_per_cycle"`

	Parallel  *parallelReport  `json:"parallel,omitempty"`
	LargeMesh *largeMeshReport `json:"large_mesh,omitempty"`
}

// largeMeshReport records the arena-scale section: the 32x32 VIX mesh at
// saturation, stepped serially (best of reps — throughput on a loaded
// host is noise-floored, so the max is the honest estimate of the code's
// speed) and with the sharded tick. The serial gate compares against the
// recorded pre-arena baseline carried in the output file, so the section
// is a ratchet: the flattened-arena hot path must stay >= 1.4x over the
// pointer-chasing implementation it replaced, measured on comparable or
// faster hardware.
type largeMeshReport struct {
	Workload       string  `json:"workload"`
	WarmupCycles   int     `json:"warmup_cycles"`
	MeasureCycles  int     `json:"measure_cycles"`
	Reps           int     `json:"reps"`
	BaselineCycSec float64 `json:"baseline_cycles_per_sec"`
	CycSec         float64 `json:"cycles_per_sec"`
	Speedup        float64 `json:"speedup"`
	// MinSpeedup is the enforced serial floor (0: no recorded baseline,
	// gate not applicable).
	MinSpeedup     float64 `json:"min_speedup,omitempty"`
	GateEnforced   bool    `json:"gate_enforced"`
	Workers        int     `json:"workers"`
	ParallelCycSec float64 `json:"parallel_cycles_per_sec,omitempty"`
	// ParallelSpeedup is sharded vs this run's serial best (same host,
	// same binary), gated >= 1.8x on multi-core hosts like the 16x16
	// parallel section.
	ParallelSpeedup  float64 `json:"parallel_speedup,omitempty"`
	ParallelGate     bool    `json:"parallel_gate_enforced"`
	ParallelSkip     string  `json:"parallel_skip_reason,omitempty"`
	StatsIdentical   bool    `json:"stats_identical"`
	MallocsPerCycle  float64 `json:"mallocs_per_cycle"`
	AllocBytesPerCyc float64 `json:"alloc_bytes_per_cycle"`
}

// parallelReport records the sharded-tick section: the same 16x16
// workload stepped serially and with -workers shards, the byte-identity
// verdict, and whether the speedup gate applied on this host. On hosts
// where the worker request resolves to a single worker the section is
// recorded as skipped with a reason instead of timing a "parallel" run
// that would bypass the pool and report a meaningless speedup.
type parallelReport struct {
	Workload       string  `json:"workload"`
	Workers        int     `json:"workers"`
	WarmupCycles   int     `json:"warmup_cycles,omitempty"`
	MeasureCycles  int     `json:"measure_cycles,omitempty"`
	SerialCycSec   float64 `json:"serial_cycles_per_sec,omitempty"`
	ParallelCycSec float64 `json:"parallel_cycles_per_sec,omitempty"`
	Speedup        float64 `json:"speedup,omitempty"`
	StatsIdentical bool    `json:"stats_identical,omitempty"`
	// GateEnforced reports whether the >= 1.8x speedup gate applied:
	// it needs at least 4 CPUs and at least 4 effective workers.
	GateEnforced bool   `json:"gate_enforced"`
	Skipped      bool   `json:"skipped,omitempty"`
	SkipReason   string `json:"skip_reason,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cyclebench: ")
	var (
		out         = flag.String("o", "BENCH_cycle.json", "output file (\"-\" for stdout)")
		warmup      = flag.Int("warmup", 3000, "warmup cycles (also grows pools/scratch to steady state)")
		measure     = flag.Int("measure", 20000, "measurement cycles")
		baseline    = flag.Float64("baseline", 0, "pre-change cycles/sec reference (0: carry over from existing output file)")
		workers     = flag.Int("workers", -1, "parallel-tick workers for the 16x16 section (<0 GOMAXPROCS)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the measurement window to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile taken after the measurement to this file")
		requireGate = flag.Bool("require-gate", false, "fail unless the parallel speedup gate actually applied (CI multicore job: a host that cannot enforce it must not pass silently)")

		largeWarmup      = flag.Int("large-warmup", 1500, "large_mesh section warmup cycles")
		largeMeasure     = flag.Int("large-measure", 3000, "large_mesh section measurement cycles")
		largeReps        = flag.Int("large-reps", 3, "large_mesh serial repetitions (best is reported)")
		largeBaseline    = flag.Float64("large-baseline", 0, "recorded pre-arena 32x32 serial cycles/sec (0: carry over from existing output file)")
		requireLargeGate = flag.Bool("require-large-gate", false, "fail unless the large_mesh serial (>= 1.4x vs recorded pre-arena baseline) and parallel (>= 1.8x) gates actually applied")

		topoName = flag.String("topo", "mesh", "main-section topology: mesh or torus (8x8; gates and the recorded baseline assume mesh)")
	)
	flag.Parse()

	var topo *topology.Topology
	switch *topoName {
	case "mesh":
		topo = topology.NewMesh(8, 8)
	case "torus":
		topo = topology.NewTorus(8, 8)
	default:
		log.Fatalf("unknown -topo %q; want mesh or torus", *topoName)
	}
	workload := fmt.Sprintf("8x8 %s, if:2 (VIX), 6 VCs, uniform random, max injection, seed 1", *topoName)
	cfg := network.Config{
		Topology: topo,
		Router: router.Config{
			Ports: topo.Radix, VCs: 6, VirtualInputs: 2, BufDepth: 5,
			AllocKind: alloc.KindSeparableIF, Policy: router.PolicyBalanced,
		},
		Pattern:      traffic.NewUniform(topo.NumNodes),
		MaxInjection: true,
		Seed:         1,
	}
	n, err := network.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer n.Close()
	n.Run(*warmup)

	// Pre-size the latency sample array for the measurement window:
	// sample recording is measurement bookkeeping, and letting its
	// backing array double mid-window would dominate the allocation
	// counters this benchmark exists to read. The warmup ejection rate
	// predicts the window's packet count; 2x headroom absorbs drift.
	if *warmup > 0 {
		ejected := int(n.Collector().Snapshot().PacketsEjected)
		n.Collector().Reserve(ejected + 2*ejected*(*measure)/(*warmup))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	n.Run(*measure)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}

	r := report{
		Workload:         workload,
		WarmupCycles:     *warmup,
		MeasureCycles:    *measure,
		CPUs:             runtime.NumCPU(),
		CycSec:           float64(*measure) / elapsed.Seconds(),
		MallocsPerCycle:  float64(after.Mallocs-before.Mallocs) / float64(*measure),
		AllocBytesPerCyc: float64(after.TotalAlloc-before.TotalAlloc) / float64(*measure),
	}
	r.BaselineCycSec = resolveBaseline(*baseline, *out, r.CycSec)
	r.Speedup = r.CycSec / r.BaselineCycSec
	r.Parallel = benchParallel(*workers, *warmup, *measure/4)
	r.LargeMesh = benchLargeMesh(*workers, *largeWarmup, *largeMeasure, *largeReps, *largeBaseline, *out, *requireLargeGate)

	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("%d cycles in %v: %.0f cycles/sec (baseline %.0f, speedup %.2fx), %.1f mallocs/cycle",
		*measure, elapsed.Round(time.Millisecond), r.CycSec, r.BaselineCycSec, r.Speedup, r.MallocsPerCycle)
	if p := r.Parallel; p != nil {
		if p.Skipped {
			log.Printf("parallel: skipped: %s", p.SkipReason)
		} else {
			log.Printf("parallel: %d workers on %s: %.0f -> %.0f cycles/sec (%.2fx, gate %v)",
				p.Workers, p.Workload, p.SerialCycSec, p.ParallelCycSec, p.Speedup, p.GateEnforced)
		}
		if *requireGate && !p.GateEnforced {
			log.Fatalf("-require-gate: parallel speedup gate did not apply (%d CPUs, %d effective workers; need >= 4 of each)",
				runtime.NumCPU(), p.Workers)
		}
	}
	if lm := r.LargeMesh; lm != nil {
		log.Printf("large_mesh: serial %.0f cycles/sec (pre-arena baseline %.0f, %.2fx, gate %v); parallel %s",
			lm.CycSec, lm.BaselineCycSec, lm.Speedup, lm.GateEnforced, largeMeshParallelSummary(lm))
		if *requireLargeGate {
			if !lm.GateEnforced {
				log.Fatal("-require-large-gate: no recorded pre-arena baseline to gate against (pass -large-baseline or point -o at a file carrying large_mesh.baseline_cycles_per_sec)")
			}
			if !lm.ParallelGate {
				log.Fatalf("-require-large-gate: large-mesh parallel gate did not apply (%d CPUs, %d effective workers; need >= 4 of each)",
					runtime.NumCPU(), lm.Workers)
			}
		}
	}
}

// largeMeshParallelSummary formats the sharded half of the large_mesh log
// line.
func largeMeshParallelSummary(lm *largeMeshReport) string {
	if lm.ParallelSkip != "" {
		return "skipped: " + lm.ParallelSkip
	}
	return fmt.Sprintf("%d workers %.0f cycles/sec (%.2fx, gate %v)",
		lm.Workers, lm.ParallelCycSec, lm.ParallelSpeedup, lm.ParallelGate)
}

// saturatedMesh builds the size x size VIX mesh (if:2, 6 VCs, uniform
// random, max injection, seed 1) the parallel and large_mesh sections
// time, ticking on the given worker count.
func saturatedMesh(size, workers int) *network.Network {
	topo := topology.NewMesh(size, size)
	n, err := network.New(network.Config{
		Topology: topo,
		Router: router.Config{
			Ports: topo.Radix, VCs: 6, VirtualInputs: 2, BufDepth: 5,
			AllocKind: alloc.KindSeparableIF, Policy: router.PolicyBalanced,
		},
		Pattern:      traffic.NewUniform(topo.NumNodes),
		MaxInjection: true,
		Seed:         1,
		Workers:      workers,
	})
	if err != nil {
		log.Fatal(err)
	}
	return n
}

// benchParallel times the 16x16 saturated VIX mesh serially and with the
// sharded tick, verifies the two produce identical statistics, and
// enforces the parallel speedup gate on hosts with enough CPUs. A worker
// request that resolves to 1 (e.g. GOMAXPROCS on a single-CPU machine)
// records the section as skipped with the reason instead of timing a
// pool-bypassing run whose speedup would be meaningless.
func benchParallel(workers, warmup, measure int) *parallelReport {
	const workload = "16x16 mesh, if:2 (VIX), 6 VCs, uniform random, max injection, seed 1"
	run := func(w int) (float64, stats.Snapshot, int) {
		n := saturatedMesh(16, w)
		defer n.Close()
		n.Warmup(warmup)
		start := time.Now()
		s := n.Measure(measure)
		return float64(measure) / time.Since(start).Seconds(), s, n.Workers()
	}

	probe := saturatedMesh(16, workers)
	eff := probe.Workers()
	probe.Close()
	if eff < 2 {
		return &parallelReport{
			Workload: workload,
			Workers:  eff,
			Skipped:  true,
			SkipReason: fmt.Sprintf("worker request %d resolves to %d effective worker on a %d-CPU host; the pool is bypassed and a \"parallel\" timing would be meaningless",
				workers, eff, runtime.NumCPU()),
		}
	}

	serialCycSec, serialSnap, _ := run(1)
	parallelCycSec, parallelSnap, eff := run(workers)
	p := &parallelReport{
		Workload:       workload,
		Workers:        eff,
		WarmupCycles:   warmup,
		MeasureCycles:  measure,
		SerialCycSec:   serialCycSec,
		ParallelCycSec: parallelCycSec,
		Speedup:        parallelCycSec / serialCycSec,
		StatsIdentical: serialSnap == parallelSnap,
		GateEnforced:   runtime.NumCPU() >= 4 && eff >= 4,
	}
	if !p.StatsIdentical {
		log.Fatalf("parallel tick diverged: workers=%d stats differ from serial\nserial:   %+v\nparallel: %+v",
			p.Workers, serialSnap, parallelSnap)
	}
	if p.GateEnforced && p.Speedup < 1.8 {
		log.Fatalf("parallel speedup gate failed: %.2fx with %d workers on %d CPUs (want >= 1.8x)",
			p.Speedup, p.Workers, runtime.NumCPU())
	}
	return p
}

// benchLargeMesh times the 32x32 saturated VIX mesh — the scale the
// arena/SoA hot-path work targets — serially (best of reps) and with the
// sharded tick, verifying byte-identical statistics between the two. The
// serial result gates >= 1.4x against the recorded pre-arena baseline
// when one is available (flag or carry-over); the sharded result gates
// >= 1.8x against this run's serial best on multi-core hosts.
func benchLargeMesh(workers, warmup, measure, reps int, baseline float64, out string, requireGate bool) *largeMeshReport {
	const workload = "32x32 mesh, if:2 (VIX), 6 VCs, uniform random, max injection, seed 1"
	run := func(w int) (float64, stats.Snapshot, int, runtime.MemStats, runtime.MemStats) {
		n := saturatedMesh(32, w)
		defer n.Close()
		n.Run(warmup)
		// Pre-size the latency sample array for the window (see the main
		// section): the warmup ejection rate predicts the window's packet
		// count, and sample bookkeeping must not pollute the allocation
		// counters this section gates on.
		ejected := int(n.Collector().Snapshot().PacketsEjected)
		n.Collector().Reset()
		if warmup > 0 {
			n.Collector().Reserve(2 * ejected * measure / warmup)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		s := n.Measure(measure)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		return float64(measure) / elapsed.Seconds(), s, n.Workers(), before, after
	}

	lm := &largeMeshReport{
		Workload:      workload,
		WarmupCycles:  warmup,
		MeasureCycles: measure,
		Reps:          reps,
	}
	var serialSnap stats.Snapshot
	for i := 0; i < reps; i++ {
		c, s, _, before, after := run(1)
		if i == 0 {
			serialSnap = s
			lm.MallocsPerCycle = float64(after.Mallocs-before.Mallocs) / float64(measure)
			lm.AllocBytesPerCyc = float64(after.TotalAlloc-before.TotalAlloc) / float64(measure)
		} else if s != serialSnap {
			log.Fatalf("large_mesh: serial rep %d stats differ from rep 0 — determinism broken\nrep 0: %+v\nrep %d: %+v", i, serialSnap, i, s)
		}
		if c > lm.CycSec {
			lm.CycSec = c
		}
	}
	lm.BaselineCycSec, lm.GateEnforced = resolveLargeBaseline(baseline, out, lm.CycSec)
	lm.Speedup = lm.CycSec / lm.BaselineCycSec
	if lm.GateEnforced {
		lm.MinSpeedup = 1.4
		if lm.Speedup < lm.MinSpeedup {
			log.Fatalf("large_mesh serial gate failed: %.0f cycles/sec is %.2fx the recorded pre-arena baseline %.0f (want >= %.1fx)",
				lm.CycSec, lm.Speedup, lm.BaselineCycSec, lm.MinSpeedup)
		}
	}

	probe := saturatedMesh(32, workers)
	eff := probe.Workers()
	probe.Close()
	if eff < 2 {
		lm.Workers = eff
		lm.ParallelSkip = fmt.Sprintf("worker request %d resolves to %d effective worker on a %d-CPU host; the pool is bypassed and a \"parallel\" timing would be meaningless",
			workers, eff, runtime.NumCPU())
		lm.StatsIdentical = true // reps cross-checked above
		return lm
	}
	parallelCycSec, parallelSnap, eff, _, _ := run(workers)
	lm.Workers = eff
	lm.ParallelCycSec = parallelCycSec
	lm.ParallelSpeedup = parallelCycSec / lm.CycSec
	lm.StatsIdentical = parallelSnap == serialSnap
	lm.ParallelGate = runtime.NumCPU() >= 4 && eff >= 4
	if !lm.StatsIdentical {
		log.Fatalf("large_mesh: sharded tick diverged: workers=%d stats differ from serial\nserial:   %+v\nparallel: %+v",
			eff, serialSnap, parallelSnap)
	}
	if lm.ParallelGate && lm.ParallelSpeedup < 1.8 {
		log.Fatalf("large_mesh parallel speedup gate failed: %.2fx with %d workers on %d CPUs (want >= 1.8x)",
			lm.ParallelSpeedup, eff, runtime.NumCPU())
	}
	return lm
}

// resolveLargeBaseline picks the pre-arena reference for the large_mesh
// section and reports whether the >= 1.4x gate applies: an explicit flag
// wins; otherwise the existing output file's recorded baseline is carried
// over; with neither, the section records speedup 1.0 ungated.
func resolveLargeBaseline(flagVal float64, out string, measured float64) (float64, bool) {
	if flagVal > 0 {
		return flagVal, true
	}
	if out != "-" {
		if data, err := os.ReadFile(out); err == nil {
			var prev report
			if json.Unmarshal(data, &prev) == nil && prev.LargeMesh != nil && prev.LargeMesh.BaselineCycSec > 0 {
				return prev.LargeMesh.BaselineCycSec, true
			}
		}
	}
	return measured, false
}

// resolveBaseline picks the before-change reference: an explicit flag
// wins; otherwise the existing output file's baseline is carried over;
// a fresh file starts with the current measurement (speedup 1.0).
func resolveBaseline(flagVal float64, out string, measured float64) float64 {
	if flagVal > 0 {
		return flagVal
	}
	if out != "-" {
		if data, err := os.ReadFile(out); err == nil {
			var prev report
			if json.Unmarshal(data, &prev) == nil && prev.BaselineCycSec > 0 {
				return prev.BaselineCycSec
			}
		}
	}
	return measured
}
