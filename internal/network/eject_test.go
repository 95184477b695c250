package network

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"vix/internal/alloc"
	"vix/internal/router"
	"vix/internal/sim"
	"vix/internal/topology"
	"vix/internal/traffic"
)

// taggingWorkload keeps every node saturated in closed loop: a node
// generates a packet of 1–5 flits whenever fewer than four of its packets
// are outstanding, tagged with its node, cycle and size, and Delivered
// retires one by its Src. Varying sizes put every FlitType, Seq and
// PacketSize on the wire.
type taggingWorkload struct {
	pattern     traffic.Pattern
	outstanding []int
	deliveries  []Delivery
}

func (w *taggingWorkload) Generate(node int, cycle int64, rng *sim.RNG) []PacketSpec {
	if w.outstanding[node] >= 4 {
		return nil
	}
	w.outstanding[node]++
	size := 1 + rng.Intn(5)
	tag := uint64(node)<<48 | uint64(cycle)<<8 | uint64(size)
	return []PacketSpec{{Dst: w.pattern.Dest(node, rng), Size: size, Tag: tag}}
}

func (w *taggingWorkload) Delivered(d Delivery) {
	w.outstanding[d.Src]--
	w.deliveries = append(w.deliveries, d)
}

// TestEjectedFlitFieldsArePinned hashes every field of every Flit
// OnEject sees, in ejection order, and every Delivery the workload gets,
// on a saturated 4x4 VIX mesh under a tagging workload. The digests were
// recorded when the network kept one whole Flit per in-flight flit, so
// they pin that whatever the network keeps instead still reproduces
// every public field at ejection: PacketID, Type, Src, Dst, Tag, Seq,
// PacketSize, Route, VC, CreateCycle, InjectCycle (0 on body and tail
// flits), EjectCycle and Hops.
func TestEjectedFlitFieldsArePinned(t *testing.T) {
	const (
		wantFlits      = 28425
		wantFlitDigest = "76a9088b1fae30bd20f8eeb20459a022a6947e0ab776f456a55c66f56f2c3713"
		wantPackets    = 9439
		wantPktDigest  = "c6b914707644eab6f09e285dd8377a49e1ec541cf855af9d22db5028777eac24"
	)
	topo := topology.NewMesh(4, 4)
	w := &taggingWorkload{pattern: traffic.NewUniform(topo.NumNodes), outstanding: make([]int, topo.NumNodes)}
	cfg := meshConfig(topo, alloc.KindSeparableIF, 2, router.PolicyBalanced)
	cfg.Workload = w
	cfg.Seed = 5
	h := sha256.New()
	flits := 0
	cfg.OnEject = func(f *router.Flit) {
		flits++
		v := reflect.ValueOf(f).Elem()
		if v.NumField() != 13 {
			t.Fatalf("Flit has %d fields; pin the new ones here", v.NumField())
		}
		var buf [8]byte
		for i := 0; i < v.NumField(); i++ {
			switch fv := v.Field(i); fv.Kind() {
			case reflect.Int, reflect.Int64:
				binary.LittleEndian.PutUint64(buf[:], uint64(fv.Int()))
			default:
				binary.LittleEndian.PutUint64(buf[:], fv.Uint())
			}
			h.Write(buf[:])
		}
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(3000)
	flitDigest := fmt.Sprintf("%x", h.Sum(nil))

	h.Reset()
	for _, d := range w.deliveries {
		for _, x := range []int64{int64(d.Src), int64(d.Dst), int64(d.Tag), d.CreateCycle, d.EjectCycle, int64(d.Hops)} {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], uint64(x))
			h.Write(buf[:])
		}
	}
	pktDigest := fmt.Sprintf("%x", h.Sum(nil))
	if flits != wantFlits || flitDigest != wantFlitDigest {
		t.Errorf("OnEject saw %d flits, digest %s; want %d, %s", flits, flitDigest, wantFlits, wantFlitDigest)
	}
	if len(w.deliveries) != wantPackets || pktDigest != wantPktDigest {
		t.Errorf("Delivered saw %d packets, digest %s; want %d, %s", len(w.deliveries), pktDigest, wantPackets, wantPktDigest)
	}
}

// TestInFlightFlitFootprint pins what an in-flight flit costs. A buffer
// slot is 4 bytes: the FlitID of its packet's record and its Type. A link
// event is the slot plus where it lands, at most 12 bytes, and an
// ejection event the slot plus the port and VC it left through, at most
// 8. An emission, a router's per-port scratch, is at most 16. What the
// network keeps per in-flight packet — its record plus its entry on the
// free stack — is at most 28 bytes: the creation cycle (8 B), source and
// destination (int32s), and the size, hop count and ejected-flit count
// (int16s). Where OnEject or a Workload reads them, the packet's
// PacketID, Tag and injection cycle add an observed entry of at most 24
// bytes. A packet queued at its source costs at most 32 bytes.
func TestInFlightFlitFootprint(t *testing.T) {
	var n Network
	rec := unsafe.Sizeof(*n.flits.At(0)) // not evaluated: the size of the element type
	entry := unsafe.Sizeof(router.FlitID(0))
	for _, c := range []struct {
		what      string
		size, max uintptr
	}{
		{"a packet record and its free-stack entry", rec + entry, 28},
		{"an observed entry", unsafe.Sizeof(observed{}), 24},
		{"a queued packet", unsafe.Sizeof(queuedPacket{}), 32},
		{"an ejection event", unsafe.Sizeof(ejection{}), 8},
		{"a link event", unsafe.Sizeof(flitDelivery{}), 12},
		{"an emission", unsafe.Sizeof(router.Emission{}), 16},
	} {
		if c.size > c.max {
			t.Errorf("%s costs %d bytes, want at most %d", c.what, c.size, c.max)
		}
	}
	if s := unsafe.Sizeof(router.Slot(0)); s != 4 {
		t.Errorf("router.Slot is %d bytes, want exactly 4", s)
	}
}

// A network with neither OnEject nor a Workload keeps no observed entry:
// a saturated 4x4 mesh grows its record slab but no side slab. With
// either observer set, the side slab grows with the records.
func TestUnobservedNetworkKeepsNoSideSlab(t *testing.T) {
	for _, c := range []struct {
		name     string
		observed bool
		set      func(*Config)
	}{
		{"neither", false, func(*Config) {}},
		{"OnEject", true, func(cfg *Config) { cfg.OnEject = func(*router.Flit) {} }},
		{"Workload", true, func(cfg *Config) {
			cfg.Workload = &taggingWorkload{pattern: traffic.NewUniform(cfg.Topology.NumNodes), outstanding: make([]int, cfg.Topology.NumNodes)}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := meshConfig(topology.NewMesh(4, 4), alloc.KindSeparableIF, 2, router.PolicyBalanced)
			cfg.MaxInjection = true
			c.set(&cfg)
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n.Run(500)
			if n.flits.Live() == 0 {
				t.Fatalf("no record live after 500 saturated cycles (%d kept)", n.flits.Cap())
			}
			want := 0
			if c.observed {
				want = n.flits.Cap()
			}
			if got := len(n.flits.observed); got != want {
				t.Errorf("%d observed entries beside %d records, want %d", got, n.flits.Cap(), want)
			}
		})
	}
}

// A network router's Occupancy holds every buffered flit to the network's
// records and the grammar of packets in order. Each case plants one fault
// in a saturated 4x4 mesh: every record's destination moved (a parked
// head's record no longer routes it to the port it waits on), or, behind
// a streaming packet's last flit in its source VC, a head of the same
// packet (a type flipped in the slot), a flit naming a freed record, or
// another live packet's body flit.
func TestOccupancyCrossChecksSlotsAgainstNetworkRecords(t *testing.T) {
	for name, c := range map[string]struct {
		corrupt func(n *Network, streaming *ni)
		want    string
	}{
		"dst": {func(n *Network, _ *ni) {
			for id := 0; id < n.flits.Cap(); id++ {
				if f := n.flits.At(router.FlitID(id)); f.packetSize > 0 {
					f.dst = (f.dst + 1) % int32(n.topo.NumNodes)
				}
			}
		}, "but its head's route is"},
		"type": {func(n *Network, s *ni) { plant(n, s, router.NewSlot(s.rec, router.Head)) }, "non-tail"},
		"freed": {func(n *Network, s *ni) {
			id := n.flits.Alloc()
			n.flits.Free(id)
			plant(n, s, router.NewSlot(id, router.Body))
		}, "names no live record"},
		"interleaved": {func(n *Network, s *ni) {
			for id := range router.FlitID(n.flits.Cap()) {
				if id != s.rec && n.flits.At(id).packetSize > 0 {
					plant(n, s, router.NewSlot(id, router.Body))
					return
				}
			}
			t.Fatal("no other live packet")
		}, "non-tail"},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := meshConfig(topology.NewMesh(4, 4), alloc.KindSeparableIF, 2, router.PolicyBalanced)
			cfg.MaxInjection = true
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n.Run(200)
			var streaming *ni
			for i := 0; streaming == nil; i++ {
				if i == 1000 {
					t.Fatal("no NI streams a packet into a VC with room behind it")
				}
				n.Step()
				for node := range n.nis {
					nif := &n.nis[node]
					r, port := n.topo.NodeRouter[node], n.topo.NodePort[node]
					if space := n.routers[r].BufferSpace(port, max(nif.curVC, 0)); nif.curVC >= 0 && space > 0 && space < cfg.Router.BufDepth {
						streaming = nif
						break
					}
				}
			}
			for _, rt := range n.Routers() {
				rt.Occupancy()
			}
			c.corrupt(n, streaming)
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, c.want) {
					t.Fatalf("Occupancy panicked with %q, want a report containing %q", msg, c.want)
				}
			}()
			for _, rt := range n.Routers() {
				rt.Occupancy()
			}
		})
	}
}

// plant delivers s behind the flits nif has streamed into its source VC.
func plant(n *Network, nif *ni, s router.Slot) {
	n.arena.Deliver(n.topo.NodeRouter[nif.node], n.topo.NodePort[nif.node], nif.curVC, s)
}

// A packet too long for its record's int16 ejected-flit count is refused
// where it enters:
// by Validate from the Config, at enqueue from a Workload. The longest
// packet that fits is accepted.
func TestOversizedPacketsAreRefused(t *testing.T) {
	size := MaxPacketSize + 1
	cfg := meshConfig(topology.NewMesh(2, 2), alloc.KindSeparableIF, 1, router.PolicyMaxFree)
	cfg.PacketSize = MaxPacketSize
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate refused PacketSize = MaxPacketSize: %v", err)
	}
	cfg.PacketSize = size
	if _, err := New(cfg); err == nil {
		t.Error("New accepted PacketSize past MaxPacketSize")
	}
	w := &oneAtATime{}
	w.send(0, PacketSpec{Dst: 3, Size: size})
	cfg.PacketSize, cfg.Workload = 0, w
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("a workload packet past MaxPacketSize was enqueued")
		}
	}()
	n.Step()
}
