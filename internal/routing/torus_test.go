package routing

import (
	"testing"

	"vix/internal/topology"
)

// torusDist is the reference minimal hop count on a torus: per-dimension
// shorter-way ring distance, summed.
func torusDist(t *topology.Topology, src, dst int) int {
	sx, sy := t.RouterXY(t.NodeRouter[src])
	dx, dy := t.RouterXY(t.NodeRouter[dst])
	return ringDist(sx, dx, t.W) + ringDist(sy, dy, t.H)
}

func ringDist(a, b, k int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if wrap := k - d; wrap < d {
		return wrap
	}
	return d
}

// Torus DOR converges everywhere and is minimal: hop count equals the
// shorter-way ring distance in each dimension, on even and odd radii.
func TestTorusDORMinimal(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.NewTorus(4, 4),
		topology.NewTorus(5, 3),
	} {
		tab := Compile(topo)
		for src := 0; src < topo.NumNodes; src++ {
			for dst := 0; dst < topo.NumNodes; dst++ {
				want := torusDist(topo, src, dst)
				if got := hops(tab, src, dst); got != want {
					t.Fatalf("%s hops %d->%d = %d, want %d", topo.Name, src, dst, got, want)
				}
			}
		}
	}
}

// On a 2x2 torus no ring reaches the wrap threshold, so torus DOR's
// tie-break must reproduce mesh DOR port-for-port at every router.
func TestTorusDORCoincidesWithMeshAt2x2(t *testing.T) {
	mesh := topology.NewMesh(2, 2)
	torus := topology.NewTorus(2, 2)
	meshRoutes := Compile(mesh)
	torusRoutes := Compile(torus)
	for r := 0; r < mesh.NumRouters; r++ {
		for dst := 0; dst < mesh.NumNodes; dst++ {
			mp := meshRoutes.Port(r, dst)
			tp := torusRoutes.Port(r, dst)
			if mp != tp {
				t.Fatalf("router %d -> node %d: torus port %d, mesh port %d", r, dst, tp, mp)
			}
		}
	}
}

// TestTorusClassMonotone walks every DOR path and checks the dateline
// invariants that make the scheme deadlock-free: within each dimension
// the class never goes 1 -> 0, the hop that traverses a wrap link is
// always class 1, and rings too short to wrap never get a class at all.
func TestTorusClassMonotone(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.NewTorus(4, 4),
		topology.NewTorus(5, 3),
	} {
		tab := Compile(topo)
		for src := 0; src < topo.NumNodes; src++ {
			for dst := 0; dst < topo.NumNodes; dst++ {
				r := topo.NodeRouter[src]
				// prevClass[axis 0=X, 1=Y]; -1 means not entered yet.
				prevClass := [2]int{-1, -1}
				for steps := 0; r != topo.NodeRouter[dst]; steps++ {
					if steps > topo.NumRouters {
						t.Fatalf("%s: %d->%d did not converge", topo.Name, src, dst)
					}
					p := tab.Port(r, dst)
					class := tab.Step(r, dst).Class
					axis, k := 0, topo.W
					if p == topo.NorthPort() || p == topo.SouthPort() {
						axis, k = 1, topo.H
					}
					if k < 3 {
						if class != -1 {
							t.Fatalf("%s: ring of %d got class %d on hop %d->%d (dst %d)", topo.Name, k, class, r, p, dst)
						}
					} else {
						if class != 0 && class != 1 {
							t.Fatalf("%s: hop %d port %d (dst %d) class %d, want 0 or 1", topo.Name, r, p, dst, class)
						}
						if prevClass[axis] == 1 && class == 0 {
							t.Fatalf("%s: class fell 1->0 in axis %d on path %d->%d at router %d", topo.Name, axis, src, dst, r)
						}
						prevClass[axis] = class
					}
					x, y := topo.RouterXY(r)
					next := int(topo.Conn[r][p].PeerRouter)
					nx, ny := topo.RouterXY(next)
					wrap := (axis == 0 && ringDist(x, nx, 1<<30) > 1) || (axis == 1 && ringDist(y, ny, 1<<30) > 1)
					if wrap && class != 1 {
						t.Fatalf("%s: wrap hop %d->%d (dst %d) got class %d, want 1", topo.Name, r, next, dst, class)
					}
					r = next
				}
			}
		}
	}
}

// TestTorusClassAtEjection pins the escape hatch: the hop out of a
// destination's router leaves through its local (ejection) port, which is
// no ring channel, so it must report class -1.
func TestTorusClassAtEjection(t *testing.T) {
	topo := topology.NewTorus(4, 4)
	tab := Compile(topo)
	for dst := 0; dst < topo.NumNodes; dst++ {
		r := topo.NodeRouter[dst]
		if p := tab.Port(r, dst); topo.Conn[r][p].Kind != topology.Local {
			t.Fatalf("router %d routes its own node %d through non-local port %d", r, dst, p)
		}
		if class := tab.Step(r, dst).Class; class != -1 {
			t.Fatalf("ejection of node %d at router %d got class %d, want -1", dst, r, class)
		}
	}
}

// TestTorusRoutesConverge extends the convergence sweep to tori,
// including an asymmetric odd-by-even one.
func TestTorusRoutesConverge(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.NewTorus(4, 4),
		topology.NewTorus(5, 4),
		topology.NewTorus(3, 3),
	} {
		t.Run(topo.Name, func(t *testing.T) {
			tab := Compile(topo)
			for src := 0; src < topo.NumNodes; src++ {
				for dst := 0; dst < topo.NumNodes; dst++ {
					r := topo.NodeRouter[src]
					steps := 0
					for r != topo.NodeRouter[dst] {
						p := tab.Port(r, dst)
						c := topo.Conn[r][p]
						if c.Kind != topology.Link {
							t.Fatalf("router %d -> node %d chose unwired port %d", r, dst, p)
						}
						r = int(c.PeerRouter)
						if steps++; steps > topo.NumRouters {
							t.Fatalf("route %d -> %d did not converge", src, dst)
						}
					}
					p := tab.Port(r, dst)
					if c := topo.Conn[r][p]; c.Kind != topology.Local || int(c.Node) != dst {
						t.Fatalf("at dst router %d, port %d is %+v, want local port of node %d", r, p, c, dst)
					}
				}
			}
		})
	}
}
