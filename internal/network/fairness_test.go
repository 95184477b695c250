package network

import (
	"testing"

	"vix/internal/alloc"
	"vix/internal/router"
	"vix/internal/topology"
)

// sourceProfile runs an 8x8 mesh saturated under if with k virtual
// inputs and policy, at seed for 1 000 warmup and 3 000 measured cycles.
// It returns the mean flits a source in columns 3-4 delivered over the
// mean of a source in columns 0-1 and 6-7, and the window's fairness.
func sourceProfile(t *testing.T, k int, policy router.PolicyKind, seed uint64) (ratio, fairness float64) {
	t.Helper()
	topo := topology.NewMesh(8, 8)
	cfg := meshConfig(topo, alloc.KindSeparableIF, k, policy)
	cfg.MaxInjection = true
	cfg.InjectionRate = 0
	cfg.Seed = seed
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Warmup(1000)
	s := n.Measure(3000)
	var centre, edge, nc, ne float64
	for src, flits := range n.Collector().PerSourceFlits() {
		switch x, _ := topo.RouterXY(topo.NodeRouter[src]); x {
		case 3, 4:
			centre += float64(flits)
			nc++
		case 0, 1, 6, 7:
			edge += float64(flits)
			ne++
		}
	}
	if edge == 0 {
		t.Fatalf("k = %d: the edge columns delivered nothing", k)
	}
	return (centre / nc) / (edge / ne), s.FairnessRatio
}

// TestMeshSourceProfile pins who is served on a saturated mesh (ROADMAP
// item 17). At k = 1 the centre columns deliver several times what the
// edge columns do, the parking-lot profile of locally fair arbitration
// (3.20-3.46x at seeds 1-3). A second virtual input per port under the
// balanced policy flattens it (1.02-1.05x) and lowers max/min fairness.
func TestMeshSourceProfile(t *testing.T) {
	ratio1, fair1 := sourceProfile(t, 1, router.PolicyMaxFree, 1)
	ratio2, fair2 := sourceProfile(t, 2, router.PolicyBalanced, 1)
	t.Logf("centre/edge flits per source: k = 1 %.2f (fairness %.2f), k = 2 %.2f (fairness %.2f)", ratio1, fair1, ratio2, fair2)
	if ratio1 < 2.5 {
		t.Errorf("k = 1: centre columns deliver %.2fx the edge columns' flits per source, want >= 2.5x", ratio1)
	}
	if ratio2 > 1.3 {
		t.Errorf("k = 2: centre columns deliver %.2fx the edge columns' flits per source, want <= 1.3x", ratio2)
	}
	if fair2 >= fair1 {
		t.Errorf("fairness (max/min) %.2f at k = 2, want below k = 1's %.2f", fair2, fair1)
	}
}
