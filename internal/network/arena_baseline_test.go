package network

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vix/internal/alloc"
	"vix/internal/router"
	"vix/internal/stats"
	"vix/internal/topology"
)

// The arena baseline goldens were generated from the pointer-per-flit
// layout that predates the arena/SoA refactor (regenerate only after an
// audited physics change with -update-arena-baseline). Every run mode —
// Step at each of lockstepWorkers, and stepDense — must reproduce the
// committed snapshot and the exact ejection sequence digest, so the hot
// path is pinned byte-for-byte against the layout it replaced, and the
// dense reference against something other than itself.
var updateArenaBaseline = flag.Bool("update-arena-baseline", false,
	"rewrite internal/network/testdata/arena_baseline goldens from the current implementation")

type arenaBaselineCase struct {
	name   string
	warmup int
	cycles int
	build  func() Config
}

func arenaBaselineCases() []arenaBaselineCase {
	return []arenaBaselineCase{
		{
			// Saturated VIX mesh: the allocator-heavy regime where every
			// router ticks every cycle.
			name: "mesh8x8_if2_sat", warmup: 400, cycles: 1200,
			build: func() Config {
				cfg := meshConfig(topology.NewMesh(8, 8), alloc.KindSeparableIF, 2, router.PolicyBalanced)
				cfg.InjectionRate = 0
				cfg.MaxInjection = true
				cfg.Seed = 7
				return cfg
			},
		},
		{
			// Moderate load on a 16x16 mesh: the mixed busy/idle regime of
			// the activity words.
			name: "mesh16x16_if2_low", warmup: 500, cycles: 1500,
			build: func() Config {
				return meshConfig(topology.NewMesh(16, 16), alloc.KindSeparableIF, 2, router.PolicyBalanced)
			},
		},
		{
			// Concentrated mesh with the wavefront allocator: radix-8
			// routers, four nodes per router.
			name: "cmesh4x4c4_wavefront", warmup: 400, cycles: 1200,
			build: func() Config {
				return meshConfig(topology.NewCMesh(4, 4, 4), alloc.KindWavefront, 1, router.PolicyMaxFree)
			},
		},
		{
			// Flattened butterfly with packet chaining: the long-radix
			// geometry plus the stateful chaining allocator.
			name: "fbfly4x4c4_pc", warmup: 400, cycles: 1200,
			build: func() Config {
				return meshConfig(topology.NewFBfly(4, 4, 4), alloc.KindPacketChaining, 2, router.PolicyBalanced)
			},
		},
		{
			// Saturated torus: the dateline VC ranges restrict each head
			// to half its output's VCs, so the VA wake on a freed VC is a
			// superset of the heads that can take it.
			name: "torus8x8_if2_sat", warmup: 400, cycles: 1200,
			build: func() Config {
				cfg := meshConfig(topology.NewTorus(8, 8), alloc.KindSeparableIF, 2, router.PolicyBalanced)
				cfg.InjectionRate = 0
				cfg.MaxInjection = true
				cfg.Seed = 7
				return cfg
			},
		},
		{
			// Saturated radix-10 flattened butterfly with 8 VCs: 80 input
			// VCs, so every per-ivc mask spans two words.
			name: "fbfly4x4c4_v8_if2_sat", warmup: 400, cycles: 1200,
			build: func() Config {
				cfg := meshConfig(topology.NewFBfly(4, 4, 4), alloc.KindSeparableIF, 2, router.PolicyBalanced)
				cfg.Router.VCs = 8
				cfg.InjectionRate = 0
				cfg.MaxInjection = true
				cfg.Seed = 7
				return cfg
			},
		},
		{
			// Saturated VIX mesh without speculation: a head that wins VC
			// allocation bids for the switch only from the next cycle.
			name: "mesh8x8_if2_nonspec_sat", warmup: 400, cycles: 1200,
			build: func() Config {
				cfg := meshConfig(topology.NewMesh(8, 8), alloc.KindSeparableIF, 2, router.PolicyBalanced)
				cfg.Router.NonSpeculative = true
				cfg.InjectionRate = 0
				cfg.MaxInjection = true
				cfg.Seed = 7
				return cfg
			},
		},
		{
			// Saturated k = 3 mesh with interleaved sub-groups: VC v feeds
			// virtual input v mod 3, so both the injection and the VA
			// dimension rule pick from non-contiguous groups.
			name: "mesh8x8_if3_interleaved_sat", warmup: 400, cycles: 1200,
			build: func() Config {
				cfg := meshConfig(topology.NewMesh(8, 8), alloc.KindSeparableIF, 3, router.PolicyBalanced)
				cfg.Router.Partition = alloc.Interleaved
				cfg.InjectionRate = 0
				cfg.MaxInjection = true
				cfg.Seed = 7
				return cfg
			},
		},
		// mesh8x8_if2_sat's saturated mesh under each kind no other case
		// runs, at k = 2 where the kind admits it: ideal needs a row per
		// VC, sparoflo the conventional crossbar. if-age is the one kind
		// that reads the requests' ages.
		saturatedMesh8x8("mesh8x8_ideal_sat", alloc.KindIdeal, 6),
		saturatedMesh8x8("mesh8x8_ifage2_sat", alloc.KindSeparableAge, 2),
		saturatedMesh8x8("mesh8x8_islip2_sat", alloc.KindISLIP, 2),
		saturatedMesh8x8("mesh8x8_sparoflo_sat", alloc.KindSparoflo, 1),
		saturatedMesh8x8("mesh8x8_ap2_sat", alloc.KindAugmentingPath, 2),
		{
			// The scale target itself at light load: 1024 routers, kept
			// short so the mode matrix stays tractable under -race.
			name: "mesh32x32_if2_low", warmup: 200, cycles: 600,
			build: func() Config {
				cfg := meshConfig(topology.NewMesh(32, 32), alloc.KindSeparableIF, 2, router.PolicyBalanced)
				cfg.InjectionRate = 0.02
				return cfg
			},
		},
	}
}

// saturatedMesh8x8 is the mesh8x8_if2_sat case under another allocator
// kind and virtual-input count.
func saturatedMesh8x8(name string, kind alloc.Kind, k int) arenaBaselineCase {
	return arenaBaselineCase{
		name: name, warmup: 400, cycles: 1200,
		build: func() Config {
			cfg := meshConfig(topology.NewMesh(8, 8), kind, k, router.PolicyBalanced)
			cfg.InjectionRate = 0
			cfg.MaxInjection = true
			cfg.Seed = 7
			return cfg
		},
	}
}

// runArenaBaseline executes one case with Step at the given worker count,
// or with stepDense, and returns the measurement snapshot plus a digest
// over the full ejection sequence (warmup included), which pins the order
// of every queue append.
func runArenaBaseline(t *testing.T, tc arenaBaselineCase, workers int, dense bool) (stats.Snapshot, string, int) {
	t.Helper()
	cfg := tc.build()
	cfg.Workers = workers
	ejected := newEjectLog()
	cfg.OnEject = ejected.record
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	snap := n.warmMeasure(tc.warmup, tc.cycles, dense)
	return snap, ejected.digest(), ejected.count()
}

// formatArenaBaseline renders a run to the golden text format. %v of a
// Snapshot round-trips every field (including a +Inf fairness ratio,
// which JSON cannot carry), and the digest line compresses the ejection
// sequence without storing thousands of records.
func formatArenaBaseline(snap stats.Snapshot, digest string, count int) string {
	return fmt.Sprintf("snapshot: %+v\nejections: %d\ndigest: %s\n", snap, count, digest)
}

func arenaBaselinePath(name string) string {
	return filepath.Join("testdata", "arena_baseline", name+".golden")
}

func TestArenaLockstepWithCommittedBaseline(t *testing.T) {
	for _, tc := range arenaBaselineCases() {
		t.Run(tc.name, func(t *testing.T) {
			path := arenaBaselinePath(tc.name)
			if *updateArenaBaseline {
				// The canonical reference is stepDense.
				snap, digest, count := runArenaBaseline(t, tc, 1, true)
				if count == 0 {
					t.Fatalf("update: case %s ejected nothing; workload broken", tc.name)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(formatArenaBaseline(snap, digest, count)), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d ejections)", path, count)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-arena-baseline at the pre-arena revision): %v", err)
			}
			check := func(workers int, dense bool) {
				snap, digest, count := runArenaBaseline(t, tc, workers, dense)
				if got := formatArenaBaseline(snap, digest, count); got != string(want) {
					t.Errorf("workers=%d dense=%v diverged from committed baseline:\n got %swant %s",
						workers, dense, got, want)
				}
			}
			check(1, true)
			for _, workers := range lockstepWorkers {
				check(workers, false)
			}
		})
	}
}
