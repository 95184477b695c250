package routing

import (
	"fmt"
	"testing"
	"testing/quick"

	"vix/internal/topology"
)

// hops returns the number of router-to-router hops a packet from src to
// dst traverses under tab's routes (not counting injection/ejection).
func hops(tab *Table, src, dst int) int { return walk(tab, tab.topo.NodeRouter[src], dst) }

// walk follows Port from router r to node dst's router and returns the
// links crossed. It panics if the route does not converge within
// NumRouters steps, which would indicate a routing bug.
func walk(tab *Table, r, dst int) int {
	t := tab.topo
	n := 0
	for r != t.NodeRouter[dst] {
		c := t.Conn[r][tab.Port(r, dst)]
		if c.Kind != topology.Link {
			panic(fmt.Sprintf("routing: route from router %d to node %d chose a non-link port", r, dst))
		}
		r = int(c.PeerRouter)
		if n++; n > t.NumRouters {
			panic("routing: route did not converge")
		}
	}
	return n
}

func topologies() []*topology.Topology {
	return []*topology.Topology{
		topology.NewMesh(8, 8),
		topology.NewCMesh(4, 4, 4),
		topology.NewFBfly(4, 4, 4),
	}
}

// Every route from every router to every destination must select a port
// that is actually wired (link or correct local port), and following the
// route must reach the destination.
func TestRoutesConvergeEverywhere(t *testing.T) {
	for _, topo := range topologies() {
		tab := Compile(topo)
		for src := 0; src < topo.NumNodes; src++ {
			for dst := 0; dst < topo.NumNodes; dst++ {
				r := topo.NodeRouter[src]
				steps := 0
				for {
					p := tab.Port(r, dst)
					c := topo.Conn[r][p]
					if r == topo.NodeRouter[dst] {
						if c.Kind != topology.Local || int(c.Node) != dst {
							t.Fatalf("%s: at dst router %d, route gave port %d (%+v), want local port of node %d", topo.Name, r, p, c, dst)
						}
						break
					}
					if c.Kind != topology.Link {
						t.Fatalf("%s: router %d -> node %d chose unwired port %d", topo.Name, r, dst, p)
					}
					r = int(c.PeerRouter)
					if steps++; steps > topo.NumRouters {
						t.Fatalf("%s: route %d -> %d did not converge", topo.Name, src, dst)
					}
				}
			}
		}
	}
}

// Mesh DOR is minimal: hop count equals Manhattan distance.
func TestMeshDORMinimal(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	tab := Compile(topo)
	for src := 0; src < topo.NumNodes; src += 3 {
		for dst := 0; dst < topo.NumNodes; dst += 5 {
			sx, sy := topo.RouterXY(topo.NodeRouter[src])
			dx, dy := topo.RouterXY(topo.NodeRouter[dst])
			want := abs(sx-dx) + abs(sy-dy)
			if got := hops(tab, src, dst); got != want {
				t.Fatalf("mesh hops %d->%d = %d, want %d", src, dst, got, want)
			}
		}
	}
}

// FBfly DOR is at most 2 hops (one per dimension).
func TestFBflyDORAtMostTwoHops(t *testing.T) {
	topo := topology.NewFBfly(4, 4, 4)
	tab := Compile(topo)
	prop := func(s, d uint8) bool {
		src := int(s) % topo.NumNodes
		dst := int(d) % topo.NumNodes
		return hops(tab, src, dst) <= 2
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Dimension order: once a mesh route moves in Y it never moves in X
// again — the invariant that makes X-then-Y deadlock-free.
func TestMeshDORDimensionOrder(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	tab := Compile(topo)
	for src := 0; src < topo.NumNodes; src += 7 {
		for dst := 0; dst < topo.NumNodes; dst += 3 {
			r := topo.NodeRouter[src]
			inY := false
			for r != topo.NodeRouter[dst] {
				p := tab.Port(r, dst)
				c := topo.Conn[r][p]
				switch c.Dim {
				case topology.DimX:
					if inY {
						t.Fatalf("route %d->%d moved X after Y", src, dst)
					}
				case topology.DimY:
					inY = true
				}
				r = int(c.PeerRouter)
			}
		}
	}
}

// CMesh: nodes sharing a router route directly via the local port with
// zero hops.
func TestCMeshIntraRouterDelivery(t *testing.T) {
	topo := topology.NewCMesh(4, 4, 4)
	tab := Compile(topo)
	for n := 0; n < topo.NumNodes; n++ {
		r := topo.NodeRouter[n]
		sibling := (n/topo.Conc)*topo.Conc + (n+1)%topo.Conc
		if topo.NodeRouter[sibling] != r {
			continue
		}
		p := tab.Port(r, sibling)
		c := topo.Conn[r][p]
		if c.Kind != topology.Local || int(c.Node) != sibling {
			t.Fatalf("intra-router route from router %d to node %d wrong: %+v", r, sibling, c)
		}
	}
}

// Average hop count on an 8x8 mesh under uniform traffic should be close
// to the analytic (w+h)/3 ≈ 5.33 for w=h=8.
func TestMeshAverageHops(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	tab := Compile(topo)
	total, pairs := 0, 0
	for src := 0; src < topo.NumNodes; src++ {
		for dst := 0; dst < topo.NumNodes; dst++ {
			if src == dst {
				continue
			}
			total += hops(tab, src, dst)
			pairs++
		}
	}
	avg := float64(total) / float64(pairs)
	// Exact uniform mean distance for 8x8 Manhattan grid excluding
	// self-pairs is 2*(64/3)*(8 - 1/8)/ ... use loose bounds.
	if avg < 5.0 || avg > 5.7 {
		t.Fatalf("mesh average hops = %.3f, expected about 5.33", avg)
	}
}

func TestDORUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Compile on unknown kind did not panic")
		}
	}()
	bad := &topology.Topology{Kind: "ring"}
	Compile(bad)
}

// TestCompileSizeIsIndependentOfShape builds the table for the longest
// rings config.Validate admits — a 32768×1 mesh and a 65535×1 torus —
// and requires one allocation each, so no shape a spec can name makes the
// routes outweigh the network; the far-end routes check the rule still
// applies across the whole span.
func TestCompileSizeIsIndependentOfShape(t *testing.T) {
	mesh, torus := topology.NewMesh(32768, 1), topology.NewTorus(65535, 1)
	for _, topo := range []*topology.Topology{mesh, torus} {
		if allocs := testing.AllocsPerRun(10, func() { Compile(topo) }); allocs > 1 {
			t.Errorf("%s %dx%d: Compile allocates %v times, want 1", topo.Kind, topo.W, topo.H, allocs)
		}
	}
	if got := Compile(mesh).Port(0, mesh.NumNodes-1); got != mesh.EastPort() {
		t.Errorf("mesh 32768x1: port at router 0 toward the last node = %d, want east %d", got, mesh.EastPort())
	}
	tab := Compile(torus)
	if got := tab.Port(0, torus.NumNodes-1); got != torus.WestPort() {
		t.Errorf("torus 65535x1: port at router 0 toward the last node = %d, want west %d (the wrap)", got, torus.WestPort())
	}
	if got := tab.Step(0, torus.NumNodes-1).Class; got != 1 {
		t.Errorf("torus 65535x1: class of the wrap hop = %d, want 1", got)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
