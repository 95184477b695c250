// Package topology builds the interconnect topologies of the paper's
// evaluation: the 2-D mesh (radix-5 routers), the concentrated mesh
// (radix-8 routers, four terminals per router), and the flattened
// butterfly (radix-10 routers, four terminals per router with full
// intra-row and intra-column connectivity).
//
// A Topology is a static port-level wiring description: every router has
// Radix ports, each either attached to a terminal node (Local), wired to
// a peer router's port (Link), or Unused (mesh edge ports). Routing and
// simulation layers consume this description without topology-specific
// logic beyond the routing function itself.
package topology

import (
	"fmt"
	"slices"
	"strings"
)

// Kind identifies a topology family.
type Kind string

// Topology families of the paper's evaluation (Table 1).
const (
	KindMesh  Kind = "mesh"
	KindCMesh Kind = "cmesh"
	KindFBfly Kind = "fbfly"
	KindTorus Kind = "torus"
)

// kinds lists the families Radix accepts.
var kinds = [...]Kind{KindMesh, KindTorus, KindCMesh, KindFBfly}

// Kinds lists the topology families, in the order Radix's error names them.
func Kinds() []Kind { return slices.Clone(kinds[:]) }

// PortKind classifies what a router port is wired to.
type PortKind uint8

// Port wiring classes.
const (
	Unused PortKind = iota // edge port with no channel attached
	Local                  // injection/ejection port of a terminal node
	Link                   // inter-router channel
)

// Dim classifies a port's direction for the paper's dimension-aware VC
// assignment (Section 2.3).
type Dim uint8

// Port direction classes.
const (
	DimLocal Dim = iota // terminal ports
	DimX                // ports moving in the X dimension
	DimY                // ports moving in the Y dimension
)

// PortConn describes one router port's wiring.
type PortConn struct {
	Kind PortKind
	// PeerRouter and PeerPort identify the other end of a Link.
	PeerRouter, PeerPort int
	// Node is the attached terminal for a Local port.
	Node int
	// Dim is the port's direction class.
	Dim Dim
}

// Topology is a static description of routers, terminals, and channels.
type Topology struct {
	Name string
	Kind Kind
	// W and H are the router-grid dimensions; Conc is the number of
	// terminal nodes per router.
	W, H, Conc int
	NumRouters int
	NumNodes   int
	// Radix is the number of ports per router (Table 1's "Radix").
	Radix int
	// Conn[r][p] is the wiring of router r's port p.
	Conn [][]PortConn
	// NodeRouter[n] and NodePort[n] locate terminal n's local port.
	NodeRouter []int
	NodePort   []int

	// xy[r] is router r's grid coordinates, tabulated by the constructor:
	// every DOR lookahead converts two router indices, and a table read
	// is cheaper than the % and / it replaces.
	xy [][2]int32
}

// New returns the w x h topology of the given kind with conc terminals
// per router (the mesh and torus constructors pass 1), or an error for
// an unknown kind or a non-positive dimension.
func New(kind Kind, w, h, conc int) (*Topology, error) {
	radix, err := Radix(kind, w, h, conc)
	if err != nil {
		return nil, err
	}
	if w <= 0 || h <= 0 || conc <= 0 {
		return nil, fmt.Errorf("topology: dimensions must be positive, got %dx%d with %d terminals per router", w, h, conc)
	}
	name := fmt.Sprintf("%s%dx%d", kind, w, h)
	if kind == KindCMesh || kind == KindFBfly {
		name += fmt.Sprintf("c%d", conc)
	}
	t := &Topology{
		Name: name, Kind: kind,
		W: w, H: h, Conc: conc,
		NumRouters: w * h,
		NumNodes:   w * h * conc,
		Radix:      radix,
		Conn:       make([][]PortConn, w*h),
		NodeRouter: make([]int, w*h*conc),
		NodePort:   make([]int, w*h*conc),
		xy:         make([][2]int32, w*h),
	}
	for r := range t.xy { // the first conc ports of a router are its terminals'
		t.xy[r] = [2]int32{int32(r % w), int32(r / w)}
		t.Conn[r] = make([]PortConn, radix)
		for c := 0; c < conc; c++ {
			n := r*conc + c
			t.Conn[r][c] = PortConn{Kind: Local, Node: n, Dim: DimLocal}
			t.NodeRouter[n] = r
			t.NodePort[n] = c
		}
	}
	if kind == KindFBfly {
		t.wireFBfly()
	} else {
		t.wireMeshLike()
	}
	t.validate()
	return t, nil
}

// mustNew is New for the fixed-kind constructors, which panic on bad
// dimensions.
func mustNew(kind Kind, w, h, conc int) *Topology {
	t, err := New(kind, w, h, conc)
	if err != nil {
		panic("topology: " + strings.TrimPrefix(err.Error(), "topology: "))
	}
	return t
}

// Radix returns the ports per router of a w x h grid of the given kind
// with conc terminals per router without building it, or an error naming
// the known kinds.
func Radix(kind Kind, w, h, conc int) (int, error) {
	if !slices.Contains(kinds[:], kind) {
		return 0, fmt.Errorf("topology: unknown topology %q; want one of %v", kind, kinds)
	}
	if kind == KindFBfly {
		return conc + w - 1 + h - 1, nil
	}
	return conc + 4, nil // four direction ports
}

// RouterXY returns the grid coordinates of router r.
func (t *Topology) RouterXY(r int) (x, y int) {
	c := t.xy[r]
	return int(c[0]), int(c[1])
}

// Diameter returns the largest number of router-to-router links a
// minimal route crosses.
func (t *Topology) Diameter() int { return Diameter(t.Kind, t.W, t.H) }

// Diameter returns the diameter of a w x h router grid of the given kind
// without building it, so a spec can be checked against it cheaply.
func Diameter(kind Kind, w, h int) int {
	switch kind {
	case KindTorus:
		return w/2 + h/2
	case KindFBfly:
		d := 0
		if w > 1 {
			d++
		}
		if h > 1 {
			d++
		}
		return d
	default:
		return w - 1 + h - 1
	}
}

// RouterAt returns the router index at grid coordinates (x, y).
func (t *Topology) RouterAt(x, y int) int { return y*t.W + x }

// LocalPort returns the local port index on node n's router.
func (t *Topology) LocalPort(n int) int { return t.NodePort[n] }

// validate checks structural invariants; it panics on violation because a
// malformed topology is a programming error, not an input error.
func (t *Topology) validate() {
	for r := 0; r < t.NumRouters; r++ {
		if len(t.Conn[r]) != t.Radix {
			panic(fmt.Sprintf("topology: router %d has %d ports, want %d", r, len(t.Conn[r]), t.Radix))
		}
		for p, c := range t.Conn[r] {
			if c.Kind != Link {
				continue
			}
			peer := t.Conn[c.PeerRouter][c.PeerPort]
			if peer.Kind != Link || peer.PeerRouter != r || peer.PeerPort != p {
				panic(fmt.Sprintf("topology: asymmetric link %d.%d -> %d.%d", r, p, c.PeerRouter, c.PeerPort))
			}
		}
	}
	for n := 0; n < t.NumNodes; n++ {
		c := t.Conn[t.NodeRouter[n]][t.NodePort[n]]
		if c.Kind != Local || c.Node != n {
			panic(fmt.Sprintf("topology: node %d local port mismatch", n))
		}
	}
}

// Mesh direction port offsets relative to the first non-local port:
// East (+x), West (-x), North (-y), South (+y).
const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
)

// NewMesh returns a w x h mesh with one terminal per router and radix-5
// routers (the paper's 8x8, 64-node configuration uses w = h = 8).
func NewMesh(w, h int) *Topology { return mustNew(KindMesh, w, h, 1) }

// NewCMesh returns a w x h concentrated mesh with conc terminals per
// router. The paper's 64-node CMesh is 4x4 with conc = 4 (radix 8).
func NewCMesh(w, h, conc int) *Topology { return mustNew(KindCMesh, w, h, conc) }

// NewTorus returns a w x h 2-D torus: the mesh wiring plus wraparound
// links closing each row and column into a ring. Rings of fewer than
// three routers get no wrap link — it would duplicate the existing
// direct channel — so a torus with w, h <= 2 is wired identically to
// the same-size mesh (the lockstep-equivalence tests rely on this).
func NewTorus(w, h int) *Topology { return mustNew(KindTorus, w, h, 1) }

// NewFBfly returns a w x h flattened butterfly with conc terminals per
// router: every router links directly to every other router in its row
// and in its column. The paper's 64-node FBfly is 4x4 with conc = 4
// (radix 4 + 3 + 3 = 10).
func NewFBfly(w, h, conc int) *Topology { return mustNew(KindFBfly, w, h, conc) }

// wireMeshLike wires the four direction ports of a mesh, cmesh or torus,
// plus the wrap links of a torus.
func (t *Topology) wireMeshLike() {
	w, h, conc := t.W, t.H, t.Conc
	for r := 0; r < t.NumRouters; r++ {
		x, y := t.RouterXY(r)
		dir := func(d int) int { return conc + d }
		if x+1 < w {
			t.Conn[r][dir(dirEast)] = PortConn{Kind: Link, PeerRouter: t.RouterAt(x+1, y), PeerPort: dir(dirWest), Dim: DimX}
		}
		if x-1 >= 0 {
			t.Conn[r][dir(dirWest)] = PortConn{Kind: Link, PeerRouter: t.RouterAt(x-1, y), PeerPort: dir(dirEast), Dim: DimX}
		}
		if y-1 >= 0 {
			t.Conn[r][dir(dirNorth)] = PortConn{Kind: Link, PeerRouter: t.RouterAt(x, y-1), PeerPort: dir(dirSouth), Dim: DimY}
		}
		if y+1 < h {
			t.Conn[r][dir(dirSouth)] = PortConn{Kind: Link, PeerRouter: t.RouterAt(x, y+1), PeerPort: dir(dirNorth), Dim: DimY}
		}
		if t.Kind == KindTorus {
			if w >= 3 {
				if x == w-1 {
					t.Conn[r][dir(dirEast)] = PortConn{Kind: Link, PeerRouter: t.RouterAt(0, y), PeerPort: dir(dirWest), Dim: DimX}
				}
				if x == 0 {
					t.Conn[r][dir(dirWest)] = PortConn{Kind: Link, PeerRouter: t.RouterAt(w-1, y), PeerPort: dir(dirEast), Dim: DimX}
				}
			}
			if h >= 3 {
				if y == 0 {
					t.Conn[r][dir(dirNorth)] = PortConn{Kind: Link, PeerRouter: t.RouterAt(x, h-1), PeerPort: dir(dirSouth), Dim: DimY}
				}
				if y == h-1 {
					t.Conn[r][dir(dirSouth)] = PortConn{Kind: Link, PeerRouter: t.RouterAt(x, 0), PeerPort: dir(dirNorth), Dim: DimY}
				}
			}
		}
	}
}

// wireFBfly wires a flattened butterfly's links to every other router of
// the row, then of the column.
func (t *Topology) wireFBfly() {
	w, h := t.W, t.H
	for r := 0; r < t.NumRouters; r++ {
		x, y := t.RouterXY(r)
		for tx := 0; tx < w; tx++ {
			if tx == x {
				continue
			}
			p := t.XPort(x, tx)
			peer := t.RouterAt(tx, y)
			t.Conn[r][p] = PortConn{Kind: Link, PeerRouter: peer, PeerPort: t.XPort(tx, x), Dim: DimX}
		}
		for ty := 0; ty < h; ty++ {
			if ty == y {
				continue
			}
			p := t.YPort(y, ty)
			peer := t.RouterAt(x, ty)
			t.Conn[r][p] = PortConn{Kind: Link, PeerRouter: peer, PeerPort: t.YPort(ty, y), Dim: DimY}
		}
	}
}

// XPort returns the port index a flattened-butterfly router at column
// from uses to reach column to directly.
func (t *Topology) XPort(from, to int) int {
	if to < from {
		return t.Conc + to
	}
	return t.Conc + to - 1
}

// YPort returns the port index a flattened-butterfly router at row from
// uses to reach row to directly.
func (t *Topology) YPort(from, to int) int {
	base := t.Conc + t.W - 1
	if to < from {
		return base + to
	}
	return base + to - 1
}

// MeshDirPort returns the port index for the given mesh direction
// (dirEast..dirSouth constants are internal; this helper serves routing).
func (t *Topology) meshDirPort(d int) int { return t.Conc + d }

// EastPort, WestPort, NorthPort and SouthPort name the mesh direction
// ports for mesh-like topologies.
func (t *Topology) EastPort() int  { return t.meshDirPort(dirEast) }
func (t *Topology) WestPort() int  { return t.meshDirPort(dirWest) }
func (t *Topology) NorthPort() int { return t.meshDirPort(dirNorth) }
func (t *Topology) SouthPort() int { return t.meshDirPort(dirSouth) }
