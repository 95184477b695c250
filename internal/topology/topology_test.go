package topology

import (
	"testing"
	"testing/quick"
)

func paperTopologies() map[string]*Topology {
	return map[string]*Topology{
		"mesh8x8":    NewMesh(8, 8),
		"cmesh4x4c4": NewCMesh(4, 4, 4),
		"fbfly4x4c4": NewFBfly(4, 4, 4),
	}
}

// Table 1's radices: mesh 5, CMesh 8, FBfly 10; all with 64 nodes.
func TestPaperConfigurations(t *testing.T) {
	cases := []struct {
		topo    *Topology
		radix   int
		routers int
		nodes   int
	}{
		{NewMesh(8, 8), 5, 64, 64},
		{NewCMesh(4, 4, 4), 8, 16, 64},
		{NewFBfly(4, 4, 4), 10, 16, 64},
	}
	for _, c := range cases {
		if c.topo.Radix != c.radix {
			t.Errorf("%s: radix %d, want %d", c.topo.Name, c.topo.Radix, c.radix)
		}
		if c.topo.NumRouters != c.routers {
			t.Errorf("%s: %d routers, want %d", c.topo.Name, c.topo.NumRouters, c.routers)
		}
		if c.topo.NumNodes != c.nodes {
			t.Errorf("%s: %d nodes, want %d", c.topo.Name, c.topo.NumNodes, c.nodes)
		}
	}
}

// Every Link port must be wired symmetrically (validate() already panics
// on violation at construction; this test makes the property explicit and
// guards against validate() being weakened).
func TestLinkSymmetry(t *testing.T) {
	for name, topo := range paperTopologies() {
		for r := 0; r < topo.NumRouters; r++ {
			for p, c := range topo.Conn[r] {
				if c.Kind != Link {
					continue
				}
				back := topo.Conn[c.PeerRouter][c.PeerPort]
				if back.Kind != Link || int(back.PeerRouter) != r || int(back.PeerPort) != p {
					t.Fatalf("%s: link %d.%d not symmetric", name, r, p)
				}
			}
		}
	}
}

// Node to (router, port) mapping is a bijection onto Local ports.
func TestNodeMappingBijective(t *testing.T) {
	for name, topo := range paperTopologies() {
		seen := make(map[[2]int]bool)
		for n := 0; n < topo.NumNodes; n++ {
			key := [2]int{topo.NodeRouter[n], topo.NodePort[n]}
			if seen[key] {
				t.Fatalf("%s: two nodes share local port %v", name, key)
			}
			seen[key] = true
			c := topo.Conn[key[0]][key[1]]
			if c.Kind != Local || int(c.Node) != n {
				t.Fatalf("%s: node %d local port wiring wrong: %+v", name, n, c)
			}
		}
		// Count local ports equals node count.
		locals := 0
		for r := 0; r < topo.NumRouters; r++ {
			for _, c := range topo.Conn[r] {
				if c.Kind == Local {
					locals++
				}
			}
		}
		if locals != topo.NumNodes {
			t.Fatalf("%s: %d local ports for %d nodes", name, locals, topo.NumNodes)
		}
	}
}

// Mesh corner and edge routers have the correct unused ports.
func TestMeshEdgePorts(t *testing.T) {
	m := NewMesh(8, 8)
	nw := m.RouterAt(0, 0)
	if m.Conn[nw][m.WestPort()].Kind != Unused || m.Conn[nw][m.NorthPort()].Kind != Unused {
		t.Error("NW corner should have unused west and north ports")
	}
	if m.Conn[nw][m.EastPort()].Kind != Link || m.Conn[nw][m.SouthPort()].Kind != Link {
		t.Error("NW corner should have east and south links")
	}
	se := m.RouterAt(7, 7)
	if m.Conn[se][m.EastPort()].Kind != Unused || m.Conn[se][m.SouthPort()].Kind != Unused {
		t.Error("SE corner should have unused east and south ports")
	}
	center := m.RouterAt(4, 4)
	for _, p := range []int{m.EastPort(), m.WestPort(), m.NorthPort(), m.SouthPort()} {
		if m.Conn[center][p].Kind != Link {
			t.Errorf("center router port %d should be a link", p)
		}
	}
}

// Mesh link count: 2*w*h - w - h bidirectional channels per dimension pair.
func TestMeshLinkCount(t *testing.T) {
	m := NewMesh(8, 8)
	links := 0
	for r := 0; r < m.NumRouters; r++ {
		for _, c := range m.Conn[r] {
			if c.Kind == Link {
				links++
			}
		}
	}
	// 8x8 mesh: 7*8 horizontal + 8*7 vertical bidirectional channels,
	// each contributing two directed ports.
	if want := 2 * (7*8 + 8*7); links != want {
		t.Errorf("mesh directed link ports = %d, want %d", links, want)
	}
}

// FBfly: every router reaches every other router in its row and column
// directly, and has no unused ports.
func TestFBflyFullRowColumnConnectivity(t *testing.T) {
	f := NewFBfly(4, 4, 4)
	for r := 0; r < f.NumRouters; r++ {
		x, y := f.RouterXY(r)
		for _, c := range f.Conn[r] {
			if c.Kind == Unused {
				t.Fatalf("fbfly router %d has unused port", r)
			}
		}
		for tx := 0; tx < 4; tx++ {
			if tx == x {
				continue
			}
			c := f.Conn[r][f.XPort(x, tx)]
			if c.Kind != Link || int(c.PeerRouter) != f.RouterAt(tx, y) {
				t.Fatalf("router %d x-port to column %d miswired: %+v", r, tx, c)
			}
			if c.Dim != DimX {
				t.Fatalf("x link misclassified as dim %d", c.Dim)
			}
		}
		for ty := 0; ty < 4; ty++ {
			if ty == y {
				continue
			}
			c := f.Conn[r][f.YPort(y, ty)]
			if c.Kind != Link || int(c.PeerRouter) != f.RouterAt(x, ty) {
				t.Fatalf("router %d y-port to row %d miswired: %+v", r, ty, c)
			}
			if c.Dim != DimY {
				t.Fatalf("y link misclassified as dim %d", c.Dim)
			}
		}
	}
}

// RouterXY and RouterAt are inverses (property test).
func TestCoordinateRoundTrip(t *testing.T) {
	for name, topo := range paperTopologies() {
		prop := func(r uint8) bool {
			router := int(r) % topo.NumRouters
			x, y := topo.RouterXY(router)
			return topo.RouterAt(x, y) == router && x >= 0 && x < topo.W && y >= 0 && y < topo.H
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Dim classification: mesh E/W are X, N/S are Y, locals are Local.
func TestMeshPortDims(t *testing.T) {
	m := NewMesh(3, 3)
	center := m.RouterAt(1, 1)
	if d := m.Conn[center][0].Dim; d != DimLocal {
		t.Errorf("local port dim = %d", d)
	}
	for _, p := range []int{m.EastPort(), m.WestPort()} {
		if d := m.Conn[center][p].Dim; d != DimX {
			t.Errorf("port %d dim = %d, want DimX", p, d)
		}
	}
	for _, p := range []int{m.NorthPort(), m.SouthPort()} {
		if d := m.Conn[center][p].Dim; d != DimY {
			t.Errorf("port %d dim = %d, want DimY", p, d)
		}
	}
}

// FBfly port index helpers must be self-consistent: XPort(a,b) on the
// router at column a connects back via XPort(b,a).
func TestFBflyPortHelpers(t *testing.T) {
	f := NewFBfly(4, 4, 4)
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if a == b {
				continue
			}
			pa, pb := f.XPort(a, b), f.XPort(b, a)
			if pa < f.Conc || pa >= f.Conc+3 || pb < f.Conc || pb >= f.Conc+3 {
				t.Fatalf("XPort(%d,%d)=%d or XPort(%d,%d)=%d out of x-port range", a, b, pa, b, a, pb)
			}
		}
	}
	// Distinct destination columns map to distinct ports.
	seen := map[int]bool{}
	for b := 0; b < 4; b++ {
		if b == 2 {
			continue
		}
		p := f.XPort(2, b)
		if seen[p] {
			t.Fatalf("XPort(2,%d) reuses port %d", b, p)
		}
		seen[p] = true
	}
}

func TestConstructorPanicsOnBadDims(t *testing.T) {
	for _, f := range []func(){
		func() { NewMesh(0, 8) },
		func() { NewCMesh(4, -1, 4) },
		func() { NewFBfly(4, 4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad dimensions did not panic")
				}
			}()
			f()
		}()
	}
}
