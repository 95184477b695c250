// Package router implements the cycle-accurate virtual-channel router
// model of the paper's methodology: a three-stage pipeline (lookahead
// route computation overlapped with VC and switch allocation, then switch
// traversal, then link traversal), wormhole switching, credit-based
// virtual-channel flow control, and a pluggable switch allocator driving
// either the conventional P x P crossbar or the paper's kP x P virtual
// input crossbar.
package router

import (
	"fmt"

	"vix/internal/topology"
)

// FlitType distinguishes the positions of a flit within its packet.
type FlitType uint8

// Flit positions. A single-flit packet is HeadTail.
const (
	Head FlitType = iota
	Body
	Tail
	HeadTail
)

// IsHead reports whether the flit opens a packet (Head or HeadTail).
func (ft FlitType) IsHead() bool { return ft == Head || ft == HeadTail }

// IsTail reports whether the flit closes a packet (Tail or HeadTail).
func (ft FlitType) IsTail() bool { return ft == Tail || ft == HeadTail }

func (ft FlitType) String() string {
	switch ft {
	case Head:
		return "head"
	case Body:
		return "body"
	case Tail:
		return "tail"
	case HeadTail:
		return "headtail"
	default:
		return fmt.Sprintf("flittype(%d)", uint8(ft))
	}
}

// Flit is the unit of flow control. Flits of one packet follow the same
// path and VC sequence (wormhole switching).
//
// Between the ends of a flit's journey only its name and its Type travel,
// in 4-byte buffer Slots and link events: VC allocation asks the store of
// records (Records) for a head's hop. A network keeps only a compact
// record per in-flight packet and builds a Flit at ejection for
// Config.OnEject; a standalone router's FlitArena keeps whole Flits, whose
// Route, VC and Hops DeliverFlit and Tick read and write on every call.
type Flit struct {
	PacketID uint64
	Type     FlitType
	Src, Dst int // terminal node ids
	// Tag is an opaque workload identifier (e.g. the memory transaction
	// a trace-driven packet belongs to).
	Tag uint64
	// Seq is the flit's index within its packet (0 on a head);
	// PacketSize the total.
	Seq, PacketSize int

	// Route is the output port at the router currently buffering the
	// flit, which VC allocation reads of a head. A route is a function of
	// router and destination, so when it is computed is a timing notion
	// the pipeline's latency already models.
	Route int

	// VC is the virtual channel the flit occupies at the current router;
	// rewritten to the allocated output VC on switch traversal.
	VC int

	// CreateCycle is when the packet was generated at the source
	// (including source-queue time in latency), EjectCycle when this flit
	// left at the destination. InjectCycle is set on a head (or
	// head-tail) flit only, to when it entered the network; body and tail
	// flits carry 0.
	CreateCycle, InjectCycle, EjectCycle int64

	// Hops counts router-to-router link traversals.
	Hops int
}

// PacketFlitType returns the FlitType of the i-th flit of a size-flit
// packet: HeadTail for single-flit packets, else Head, Body..., Tail.
func PacketFlitType(i, size int) FlitType {
	switch {
	case size == 1:
		return HeadTail
	case i == 0:
		return Head
	case i == size-1:
		return Tail
	default:
		return Body
	}
}

// FlitID addresses a flit's record within the Slab that keeps it — in a
// network, the record of the flit's packet, which every flit of the
// packet names. All hot-path structures — VC buffer rings, link and
// ejection events — carry these dense indices instead of pointers: the
// whole record population lives in one contiguous slab, and an index
// (unlike a pointer) survives slab growth and is a checkpoint-friendly
// stable name for the record. A Slot keeps an id in 30 bits, so a store
// whose ids reach a Slot names at most MaxFlitID+1 records.
type FlitID int32

// flitArenaMinBatch is the smallest slab extension; growth otherwise
// doubles the slab so a run reaches its high-water mark in O(log n)
// allocations and the steady state allocates nothing.
const flitArenaMinBatch = 256

// Slab keeps one T record per live flit (or packet) in a single
// contiguous slab, named by FlitID. The free list is a LIFO index stack: Alloc pops
// (growing the slab when empty), Free pushes. Identifiers are never
// compared or ordered by the simulation — which slot a flit happens to
// occupy has no observable effect — so slab growth mid-run cannot perturb
// statistics or RNG streams. The zero Slab is empty and grows on its
// first Alloc.
type Slab[T any] struct {
	slab []T
	free []FlitID
}

// grow extends the slab by batch slots and stacks them as free. New ids
// are pushed in ascending order, so they are handed out descending —
// matching the LIFO discipline of the old pointer free list.
func (s *Slab[T]) grow(batch int) {
	base := len(s.slab)
	s.slab = append(s.slab, make([]T, batch)...)
	for i := 0; i < batch; i++ {
		s.free = append(s.free, FlitID(base+i))
	}
}

// At resolves id to the record it names. The pointer is stable EXCEPT
// across Alloc, which may grow the slab; callers must not hold it across
// an Alloc call.
func (s *Slab[T]) At(id FlitID) *T { return &s.slab[id] }

// Alloc returns the id of a zeroed record (Free zeroes what it frees),
// doubling the slab (by at least flitArenaMinBatch) if no free slot
// remains.
func (s *Slab[T]) Alloc() FlitID {
	if len(s.free) == 0 {
		s.grow(max(len(s.slab), flitArenaMinBatch))
	}
	id := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	return id
}

// Free returns id's slot to the free stack, zeroed: a free record is a
// zero record.
func (s *Slab[T]) Free(id FlitID) {
	var zero T
	s.slab[id] = zero
	s.free = append(s.free, id)
}

// Cap returns the slab capacity in records; tests use it to detect growth.
func (s *Slab[T]) Cap() int { return len(s.slab) }

// Live returns the number of allocated (not free) slots.
func (s *Slab[T]) Live() int { return len(s.slab) - len(s.free) }

// Holds reports whether id names a slot of the slab.
func (s *Slab[T]) Holds(id FlitID) bool { return id >= 0 && int(id) < len(s.slab) }

// Records is the store a router's flit ids name. VC allocation asks it
// for a head's hop, once per head per hop, and Occupancy which packet a
// buffered flit belongs to. Sharded routers call it concurrently, so it
// must not write.
type Records interface {
	// Head returns the hop at router of the packet whose head flit id
	// names.
	Head(id FlitID, router int) Hop
	// Packet names the packet of the live record id, and live is false
	// if id names no live record. A network names a packet by its
	// record's id, which every flit of it names; a FlitArena by its
	// PacketID.
	Packet(id FlitID) (packet uint64, live bool)
}

// Hop is what VC allocation reads of a head at one router (Section
// 2.3): its output port, the downstream VCs [Lo, Hi) it may take there
// (all of them unless the topology restricts it, as the torus dateline
// classes do; the policy chooses freely among them), and the dimension
// of the port it will request at the next router (the lookahead).
type Hop struct {
	Route, Lo, Hi int
	Next          topology.Dim
}

// FlitArena keeps whole Flit records, one per flit: the standalone
// router's store, whose callers fill a record before DeliverFlit and read
// it after Tick. A network keeps a compact record per packet instead.
type FlitArena struct{ Slab[Flit] }

// NewFlitArena returns an arena with the minimum batch of free slots.
func NewFlitArena() *FlitArena {
	a := &FlitArena{}
	a.grow(flitArenaMinBatch)
	return a
}

// Packet names the packet of the live record id, by its PacketID (see
// Records). A freed record is zero, so its PacketSize is 0; every flit
// DeliverFlit takes has a positive one.
func (a *FlitArena) Packet(id FlitID) (uint64, bool) {
	if !a.Holds(id) || a.At(id).PacketSize <= 0 {
		return 0, false
	}
	return a.At(id).PacketID, true
}

// NewPacket builds the flit sequence for one packet of size flits.
func NewPacket(id uint64, src, dst, size int, createCycle int64) []*Flit {
	if size <= 0 {
		panic("router: packet size must be positive")
	}
	flits := make([]*Flit, size)
	for i := range flits {
		ft := PacketFlitType(i, size)
		flits[i] = &Flit{
			PacketID:    id,
			Type:        ft,
			Src:         src,
			Dst:         dst,
			Seq:         i,
			PacketSize:  size,
			CreateCycle: createCycle,
			Route:       -1,
			VC:          -1,
		}
	}
	return flits
}
