// Package routing implements the deterministic dimension-order routing
// (DOR) of the paper's methodology, selected once per topology as a
// Table: at each router, one Step gives the output port, the torus
// dateline VC class of that hop, and the lookahead dimension that lets
// the three-stage pipeline overlap route computation with allocation.
// DOR resolves X completely before Y: hop by hop on the mesh and cmesh,
// the shorter way around each ring on the torus, one direct hop per
// dimension on the flattened butterfly.
package routing

import (
	"fmt"

	"vix/internal/topology"
)

// Table is dimension-order routing for one topology. Because a route
// resolves X before Y, each hop is decided by one dimension alone, so the
// table holds only its kind's one-dimensional rule and applies it to the
// dimension still unresolved. It is read-only once built, so any number
// of goroutines may read it.
type Table struct {
	topo *topology.Topology
	rule func(t *topology.Topology, dim topology.Dim, from, to, k int) step
	// dist is the number of hops rule takes from coordinate from to
	// coordinate to of a k-router dimension.
	dist func(from, to, k int) int
}

// step is one hop within a dimension: the output port, and the dateline
// VC class the hop must use, or -1 for none.
type step struct{ port, class int8 }

// Compile returns t's dimension-order route table. It panics on a kind
// it has no routing rule for.
func Compile(t *topology.Topology) *Table {
	rt := &Table{topo: t}
	switch t.Kind {
	case topology.KindMesh, topology.KindCMesh:
		rt.rule, rt.dist = meshStep, meshHops
	case topology.KindTorus:
		rt.rule, rt.dist = torusStep, torusHops
	case topology.KindFBfly:
		rt.rule, rt.dist = fbflyStep, fbflyHops
	default:
		panic(fmt.Sprintf("routing: no DOR for topology kind %q", t.Kind))
	}
	return rt
}

// meshStep moves one router toward the destination coordinate.
func meshStep(t *topology.Topology, dim topology.Dim, from, to, k int) step {
	return step{port: int8(dirPort(t, dim, to > from)), class: -1}
}

// meshHops is the hop count of meshStep: one per coordinate between.
func meshHops(from, to, k int) int {
	if to > from {
		return to - from
	}
	return from - to
}

// fbflyHops is the hop count of fbflyStep: one direct link, if any.
func fbflyHops(from, to, k int) int {
	if to == from {
		return 0
	}
	return 1
}

// torusHops is the hop count of torusStep: the shorter way around the
// ring, which at a tie is the same length either way.
func torusHops(from, to, k int) int {
	d := meshHops(from, to, k)
	return min(d, k-d)
}

// fbflyStep takes the direct link to the destination coordinate.
func fbflyStep(t *topology.Topology, dim topology.Dim, from, to, k int) step {
	if dim == topology.DimX {
		return step{port: int8(t.XPort(from, to)), class: -1}
	}
	return step{port: int8(t.YPort(from, to)), class: -1}
}

// dirPort returns the mesh direction port that moves toward higher (up)
// or lower coordinates in dim: east and west in X, south and north in Y.
func dirPort(t *topology.Topology, dim topology.Dim, up bool) int {
	switch {
	case dim == topology.DimX && up:
		return t.EastPort()
	case dim == topology.DimX:
		return t.WestPort()
	case up:
		return t.SouthPort()
	}
	return t.NorthPort()
}

// torusStep takes the shorter way around a k-ring (torusDir). Its
// dateline class comes from the packet's remaining path, so it needs no
// per-flit state: class 0 while the rest of the ring traversal still
// crosses the wrap edge (k-1 to 0, or 0 to k-1 going negative), class 1
// from the crossing on and for packets that never wrap. Class-0 chains
// stop at the wrap edge (the wrap channel itself is class 1), class-1
// chains never re-enter it, and a packet only moves from class 0 to 1,
// so the channel dependency graph is acyclic and minimal torus routing
// is deadlock-free with two classes; dimension order keeps X and Y
// acyclic between each other. A ring under 3 routers has no wrap link,
// so its hops get no class.
func torusStep(t *topology.Topology, dim topology.Dim, from, to, k int) step {
	dir := torusDir(from, to, k)
	s := step{port: int8(dirPort(t, dim, dir > 0)), class: -1}
	if k >= 3 {
		peer := (from + dir + k) % k
		s.class = 1
		if (dir > 0 && peer > to) || (dir < 0 && peer < to) {
			s.class = 0 // the wrap edge is still ahead
		}
	}
	return s
}

// torusDir returns +1 to travel in the positive direction (east/south)
// on a k-ring from coordinate from to coordinate to, or -1 for the
// negative direction. The shorter way wins; an exact tie breaks toward
// the direct (mesh) direction. The direction is stable hop to hop: the
// chosen way's remaining distance shrinks while the other grows, so a
// packet never reverses mid-ring.
func torusDir(from, to, k int) int {
	pos := to - from
	if pos < 0 {
		pos += k
	}
	neg := k - pos
	switch {
	case pos < neg:
		return 1
	case neg < pos:
		return -1
	case to > from:
		return 1
	default:
		return -1
	}
}

// at returns the step a packet destined to node dst takes at router,
// and the coordinates of dst's router: the X step while its column
// differs, then the Y step, then ejection at dst's local port.
func (rt *Table) at(router, dst int) (s step, dx, dy int) {
	t := rt.topo
	x, y := t.RouterXY(router)
	dx, dy = t.RouterXY(t.NodeRouter[dst])
	switch {
	case x != dx:
		return rt.rule(t, topology.DimX, x, dx, t.W), dx, dy
	case y != dy:
		return rt.rule(t, topology.DimY, y, dy, t.H), dx, dy
	}
	return step{port: int8(t.LocalPort(dst)), class: -1}, dx, dy
}

// Port returns the output port a packet destined to node dst takes at
// router.
func (rt *Table) Port(router, dst int) int {
	s, _, _ := rt.at(router, dst)
	return int(s.port)
}

// Hops returns the router-to-router links a packet destined to node dst
// crosses from router on, ejection not counted: the sum of its X and Y
// DOR distances, which is the length of the path Port walks.
func (rt *Table) Hops(router, dst int) int {
	t := rt.topo
	x, y := t.RouterXY(router)
	dx, dy := t.RouterXY(t.NodeRouter[dst])
	return rt.dist(x, dx, t.W) + rt.dist(y, dy, t.H)
}

// Step is the whole hop a packet destined to one node takes at one
// router: the output Port; the dateline VC Class, 0 or 1, of the channel
// it leaves through, or -1 where the hop needs no restriction (off the
// torus, at ejection, on rings too small to wrap); and Next, the
// dimension of the port the packet will request at the router Port
// leads to (the lookahead the Section 2.3 VC policies read): X while
// that peer's column differs from the destination's, then Y, and
// DimLocal at the destination's router or off a link.
type Step struct {
	Port, Class int
	Next        topology.Dim
}

// Step returns the hop a packet destined to node dst takes at router.
func (rt *Table) Step(router, dst int) Step {
	t := rt.topo
	s, dx, dy := rt.at(router, dst)
	st := Step{Port: int(s.port), Class: int(s.class), Next: topology.DimLocal}
	if c := &t.Conn[router][s.port]; c.Kind == topology.Link {
		px, py := t.RouterXY(int(c.PeerRouter))
		switch {
		case px != dx:
			st.Next = topology.DimX
		case py != dy:
			st.Next = topology.DimY
		}
	}
	return st
}
