// Package routing implements the deterministic dimension-order routing of
// the paper's methodology for all three evaluated topologies, plus the
// lookahead helper that lets the three-stage pipeline overlap route
// computation with allocation.
//
// Dimension-order routing resolves the X dimension completely before the
// Y dimension. On the mesh and concentrated mesh that means hop-by-hop
// east/west then north/south; on the flattened butterfly a single direct
// hop per dimension. X-before-Y with one VC pool is deadlock-free on all
// three.
package routing

import (
	"fmt"

	"vix/internal/topology"
)

// Func computes the output port a packet destined to node dst must take
// at the given router.
type Func func(t *topology.Topology, router, dst int) int

// DOR returns the dimension-order routing function for t's kind.
func DOR(t *topology.Topology) Func {
	switch t.Kind {
	case topology.KindMesh, topology.KindCMesh:
		return meshDOR
	case topology.KindTorus:
		return torusDOR
	case topology.KindFBfly:
		return fbflyDOR
	default:
		panic(fmt.Sprintf("routing: no DOR for topology kind %q", t.Kind))
	}
}

// meshDOR routes X first, then Y, then ejects at the destination's local
// port.
func meshDOR(t *topology.Topology, router, dst int) int {
	dr := t.NodeRouter[dst]
	if dr == router {
		return t.LocalPort(dst)
	}
	x, y := t.RouterXY(router)
	dx, dy := t.RouterXY(dr)
	switch {
	case dx > x:
		return t.EastPort()
	case dx < x:
		return t.WestPort()
	case dy < y:
		return t.NorthPort()
	default:
		return t.SouthPort()
	}
}

// torusDOR routes X first, then Y, taking the shorter way around each
// ring. Ties (and rings too small to carry wrap links) break toward the
// direct direction — the one mesh DOR takes — so torus routing coincides
// with mesh routing on every pair whose minimal path needs no wrap.
func torusDOR(t *topology.Topology, router, dst int) int {
	dr := t.NodeRouter[dst]
	if dr == router {
		return t.LocalPort(dst)
	}
	x, y := t.RouterXY(router)
	dx, dy := t.RouterXY(dr)
	if dx != x {
		if torusDir(x, dx, t.W) > 0 {
			return t.EastPort()
		}
		return t.WestPort()
	}
	if torusDir(y, dy, t.H) > 0 {
		return t.SouthPort()
	}
	return t.NorthPort()
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

// TorusVCClass returns the dateline VC class a packet destined to dst
// must use on the channel leaving router through outPort, or -1 when the
// hop needs no restriction (ejection and injection hops, and rings too
// small to carry wrap links).
//
// The class is derived from the packet's remaining path, so it needs no
// per-flit state: class 0 while the rest of the traversal in the
// traveled dimension still crosses that ring's wrap edge (the channel
// from coordinate k-1 to 0, or 0 to k-1 in the negative direction),
// class 1 from the wrap crossing onward — and for packets that never
// wrap. Class-0 dependency chains stop at the wrap edge (the wrap
// channel itself is always class 1), class-1 chains never re-enter it
// (a packet requesting the wrap channel still has the crossing ahead,
// making it class 0), and a packet only moves from class 0 to class 1,
// so the channel dependency graph is acyclic: minimal routing on the
// torus is deadlock-free with the two classes. Dimension-order routing
// keeps X and Y dependencies acyclic between each other as on the mesh.
func TorusVCClass(t *topology.Topology, router, outPort, dst int) int {
	c := t.Conn[router][outPort]
	if c.Kind != topology.Link {
		return -1
	}
	px, py := t.RouterXY(c.PeerRouter)
	dx, dy := t.RouterXY(t.NodeRouter[dst])
	var p, d, k, dir int
	switch outPort {
	case t.EastPort():
		p, d, k, dir = px, dx, t.W, 1
	case t.WestPort():
		p, d, k, dir = px, dx, t.W, -1
	case t.SouthPort():
		p, d, k, dir = py, dy, t.H, 1
	case t.NorthPort():
		p, d, k, dir = py, dy, t.H, -1
	default:
		return -1
	}
	if k < 3 {
		return -1 // no wrap links on this ring, nothing to cut
	}
	if (dir > 0 && p > d) || (dir < 0 && p < d) {
		return 0 // the wrap edge is still ahead
	}
	return 1
}

// fbflyDOR takes one direct hop to the destination column, then one to
// the destination row, then ejects.
func fbflyDOR(t *topology.Topology, router, dst int) int {
	dr := t.NodeRouter[dst]
	if dr == router {
		return t.LocalPort(dst)
	}
	x, y := t.RouterXY(router)
	dx, dy := t.RouterXY(dr)
	if dx != x {
		return t.XPort(x, dx)
	}
	return t.YPort(y, dy)
}
