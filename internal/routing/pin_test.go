package routing

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"vix/internal/topology"
)

// TestRoutesArePinned hashes, for every (router, destination) of each
// topology, the DOR output port, the VC class the network restricts the
// head to there, and the lookahead dimension through every output port:
// Step's Next through the routed one, and through the others the
// dimension of the port the peer routes to (DimLocal off a link). The
// digests were recorded from the per-kind route functions, the torus
// class function and the network's second route call at the peer that
// the Table replaced (the class was -1 off the torus, where the network
// restricted no VC), so they pin that the table routes exactly as those
// did. A deliberate routing change —
// a new torus tie rule — moves its topologies' rows and says so.
func TestRoutesArePinned(t *testing.T) {
	want := map[string]string{
		"mesh8x8":    "813ee9bc63b13330987a4346b771239b059d22f205b019c1fb956d730be53743",
		"cmesh4x4c4": "1461ecc9947b4ebe97edf92393447fb4c062bdffa190e91f16b62037c8a8666a",
		"fbfly4x4c4": "643369a7735233cf80723d14d86de088f620611727522f1093b8cfb655099c2f",
		"torus2x2":   "f0f2019d2a208da90cf7fb9b050978e8529ab5c250139dc59ffabd404cc1afc6",
		"torus4x4":   "9ce007f6475d11244f1e56d43473a496afcd55e344ac7cc1b105a1c028ccd343",
		"torus5x3":   "98be007debd54e515ba20857bdb861838771652ad71fae8f47cbfe88d50abf68",
		"torus8x8":   "01103f3840019f93c1fac9972a407b3a3d8ac06f5831d0f64b4b156f42f068e6",
	}
	for _, topo := range pinnedTopologies() {
		tab := Compile(topo)
		h := sha256.New()
		for r := 0; r < topo.NumRouters; r++ {
			for dst := 0; dst < topo.NumNodes; dst++ {
				st := tab.Step(r, dst)
				row := []byte{byte(st.Port), byte(int8(st.Class))}
				for p, c := range topo.Conn[r] {
					next := topology.DimLocal
					switch {
					case p == st.Port:
						next = st.Next
					case c.Kind == topology.Link:
						peer := int(c.PeerRouter)
						next = topo.Conn[peer][tab.Port(peer, dst)].Dim
					}
					row = append(row, byte(next))
				}
				h.Write(row)
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[topo.Name] {
			t.Errorf("%s: routes digest %s, want %s", topo.Name, got, want[topo.Name])
		}
	}
}

// pinnedTopologies are the topologies TestRoutesArePinned covers.
func pinnedTopologies() []*topology.Topology {
	return append(topologies(),
		topology.NewTorus(2, 2),
		topology.NewTorus(4, 4),
		topology.NewTorus(5, 3),
		topology.NewTorus(8, 8),
	)
}

// TestHopsMatchesThePortWalk holds Hops, the per-dimension DOR distances
// summed, to the length of the path Port walks, for every (router,
// destination) of every pinned topology. Among those pairs are torus
// rings crossed at exactly half their size, where torusDir breaks a tie
// between two ways of one length, and cmesh nodes on the router they
// start from, which cross no link; both kinds are counted so that a
// change to the topology list cannot drop them unseen.
func TestHopsMatchesThePortWalk(t *testing.T) {
	var ties, local int
	for _, topo := range pinnedTopologies() {
		tab := Compile(topo)
		for r := 0; r < topo.NumRouters; r++ {
			x, y := topo.RouterXY(r)
			for dst := 0; dst < topo.NumNodes; dst++ {
				want := walk(tab, r, dst)
				if got := tab.Hops(r, dst); got != want {
					t.Fatalf("%s: Hops(%d, %d) = %d, the Port walk crosses %d links", topo.Name, r, dst, got, want)
				}
				dx, dy := topo.RouterXY(topo.NodeRouter[dst])
				if topo.Kind == topology.KindTorus && (2*abs(x-dx) == topo.W || 2*abs(y-dy) == topo.H) {
					ties++
				}
				if topo.Kind == topology.KindCMesh && topo.NodeRouter[dst] == r {
					if want != 0 {
						t.Fatalf("%s: node %d on router %d is %d links away", topo.Name, dst, r, want)
					}
					local++
				}
			}
		}
	}
	if ties == 0 || local == 0 {
		t.Fatalf("checked %d torus tie pairs and %d same-router cmesh pairs; want both", ties, local)
	}
}
