package topology

import (
	"reflect"
	"testing"
)

// Every torus router has all four direction ports wired (no edges), and
// the boundary routers' wrap links land on the opposite side of the ring
// with matching reverse ports.
func TestTorusWrapWiring(t *testing.T) {
	topo := NewTorus(4, 4)
	for r := 0; r < topo.NumRouters; r++ {
		for _, p := range []int{topo.EastPort(), topo.WestPort(), topo.NorthPort(), topo.SouthPort()} {
			if topo.Conn[r][p].Kind != Link {
				t.Fatalf("torus router %d port %d is %v, want Link", r, p, topo.Conn[r][p].Kind)
			}
		}
	}
	for y := 0; y < topo.H; y++ {
		east := topo.RouterAt(topo.W-1, y)
		if got := int(topo.Conn[east][topo.EastPort()].PeerRouter); got != topo.RouterAt(0, y) {
			t.Fatalf("row %d east wrap lands on router %d, want %d", y, got, topo.RouterAt(0, y))
		}
		west := topo.RouterAt(0, y)
		if got := int(topo.Conn[west][topo.WestPort()].PeerRouter); got != topo.RouterAt(topo.W-1, y) {
			t.Fatalf("row %d west wrap lands on router %d, want %d", y, got, topo.RouterAt(topo.W-1, y))
		}
	}
	for x := 0; x < topo.W; x++ {
		north := topo.RouterAt(x, 0)
		if got := int(topo.Conn[north][topo.NorthPort()].PeerRouter); got != topo.RouterAt(x, topo.H-1) {
			t.Fatalf("col %d north wrap lands on router %d, want %d", x, got, topo.RouterAt(x, topo.H-1))
		}
		south := topo.RouterAt(x, topo.H-1)
		if got := int(topo.Conn[south][topo.SouthPort()].PeerRouter); got != topo.RouterAt(x, 0) {
			t.Fatalf("col %d south wrap lands on router %d, want %d", x, got, topo.RouterAt(x, 0))
		}
	}
}

// Rings of fewer than three routers get no wraparound (it would duplicate
// the existing bidirectional link), so a 2x2 torus is wired exactly like
// the 2x2 mesh.
func TestTorus2x2EqualsMesh(t *testing.T) {
	torus := NewTorus(2, 2)
	mesh := NewMesh(2, 2)
	if !reflect.DeepEqual(torus.Conn, mesh.Conn) {
		t.Fatalf("2x2 torus wiring differs from 2x2 mesh:\ntorus: %+v\nmesh:  %+v", torus.Conn, mesh.Conn)
	}
	// A 3x2 torus wraps only the width-3 rows, never the height-2 columns.
	mixed := NewTorus(3, 2)
	if mixed.Conn[mixed.RouterAt(2, 0)][mixed.EastPort()].Kind != Link {
		t.Fatal("3x2 torus: width-3 row should wrap east")
	}
	if mixed.Conn[mixed.RouterAt(0, 0)][mixed.NorthPort()].Kind == Link {
		t.Fatal("3x2 torus: height-2 column must not wrap north")
	}
}
