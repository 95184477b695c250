package router

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"vix/internal/alloc"
	"vix/internal/sim"
	"vix/internal/topology"
)

// Config holds the per-router microarchitecture parameters of the paper's
// methodology (Section 3): buffering of v VCs per port with a fixed
// buffer depth, a crossbar with k virtual inputs per port, a switch
// allocation scheme, and an output-VC assignment policy.
type Config struct {
	Ports         int             // router radix P
	VCs           int             // virtual channels per input port
	VirtualInputs int             // crossbar virtual inputs per port (1 = baseline, 2 = VIX)
	BufDepth      int             // flit buffers per VC
	AllocKind     alloc.Kind      // switch allocation scheme
	Policy        PolicyKind      // output-VC assignment policy
	Partition     alloc.Partition // VC-to-sub-group mapping (default contiguous)

	// NonSpeculative disables speculative switch allocation: a head flit
	// that wins VC allocation this cycle may only compete in switch
	// allocation from the next cycle. The default (false) models the
	// paper's optimised pipeline (Figure 6b, citing Peh & Dally), where
	// heads speculatively bid for the switch in parallel with VA.
	NonSpeculative bool
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	// Ring heads, counts and credits are int8 slab fields bounded by
	// BufDepth; routes and output ports are int8 fields bounded by Ports.
	if c.BufDepth <= 0 || c.BufDepth > math.MaxInt8 {
		return fmt.Errorf("router: BufDepth must be in 1..%d, got %d", math.MaxInt8, c.BufDepth)
	}
	if c.Ports > math.MaxInt8 {
		return fmt.Errorf("router: Ports must be at most %d, got %d", math.MaxInt8, c.Ports)
	}
	switch c.Policy {
	case PolicyMaxFree, PolicyDimension, PolicyBalanced:
	default:
		return fmt.Errorf("router: unknown VC policy %q", c.Policy)
	}
	return c.Alloc().Validate()
}

// Alloc returns the allocator geometry implied by the config.
func (c Config) Alloc() alloc.Config {
	return alloc.Config{Ports: c.Ports, VCs: c.VCs, VirtualInputs: c.VirtualInputs, Partition: c.Partition}
}

// PortInfo describes one (bidirectional) router port's wiring class and
// dimension, taken from the topology.
type PortInfo struct {
	Kind topology.PortKind
	Dim  topology.Dim
}

// Slot is a flit as a VC buffer holds it and a link carries it: the
// flit's name plus the header fields a hop reads or writes, 12 bytes. In
// the paper's router the header sits in the input-buffer slot next to the
// payload; here it sits next to the FlitID, so a hop never resolves the
// id to its Flit record.
type Slot struct {
	Flit FlitID
	Dst  int32 // destination terminal
	Hops int16 // link traversals so far
	// Route is the output port at the router buffering the flit. On an
	// Emission it is still the route just taken until the network layer
	// overwrites it with the lookahead route at the next router.
	Route int8
	Type  FlitType
}

// Emission is a flit leaving through an output port this cycle, its Hops
// already counting a link traversal; the network layer schedules its
// arrival in VC of the downstream input port (or its ejection) after
// switch and link traversal.
type Emission struct {
	OutPort int
	Slot
	VC int8 // granted output VC (0 for ejection)
}

// CreditMsg is a credit freed by a flit departing input (Port, VC),
// to be returned to the upstream router.
type CreditMsg struct {
	Port, VC int
}

// NextDimFunc returns the dimension class of the output port a packet
// destined to dst will request at the downstream router reached through
// outPort (lookahead information for the Section 2.3 policies).
type NextDimFunc func(outPort, dst int) topology.Dim

// VCRangeFunc returns the downstream-VC index range [lo, hi) a packet
// destined to dst may be assigned when leaving through outPort. The
// network uses it to impose topology-level VC restrictions — the torus
// dateline classes — on top of the Section 2.3 assignment policy: the
// policy chooses freely among the VCs the range admits. A nil func (the
// default) admits every VC.
type VCRangeFunc func(outPort, dst int) (lo, hi int)

// segment returns router slot's n-entry segment of slab, capped so that
// appending to or reslicing the view cannot reach the next router's.
func segment[T any](slab []T, slot, n int) []T {
	return slab[slot*n : (slot+1)*n : (slot+1)*n]
}

// Arena holds the hot per-router state of every router in one network as
// contiguous structure-of-arrays slabs. Each router owns one exact-size
// segment of each slab (sliced out at construction), so a full network
// tick walks linear memory in router order.
//
// Layout per router segment, indexed by ivc = port*VCs + vc:
//
//	bufs    [ivc*BufDepth : ...]  VC buffer ring storage (Slots): the
//	                              front slot carries the route, dst and
//	                              type VC allocation needs, so no stage
//	                              resolves a FlitID
//	head    [ivc]                 ring head slot
//	count   [ivc]                 buffered flits in the ring
//	ovc     [ivc]                 allocated downstream VC (-1 = none)
//	outPort [ivc]                 route of the current packet
//	wait    [ivc]                 cycles the front flit has waited
//	credits [out*VCs + v]         downstream credits per output VC
//
// (head, count and credits are bounded by BufDepth, ovc by VCs and outPort
// by Ports, so they are int8 slabs — Config.Validate holds the bounds —
// and only wait, a cycle count, is int32)
//
// and one mask segment per router, the bit-vector view of the same state
// that the tick walks instead of scanning every ivc (bit ivc&63 of word
// ivc>>6; W = ceil(Ports*VCs/64) words each):
//
//	nonEmpty  [W]      count[ivc] > 0
//	hasOVC    [W]      ovc[ivc] >= 0
//	justAlloc [W]      ovc granted this tick (kept only under NonSpeculative)
//	vaWait    [W]      pending head (nonEmpty, no ovc) whose admitted VCs
//	                   at outPort[ivc] were all busy when VA last tried it
//	noCredit  [W]      ovc held at a link output with zero credits
//	busy      [Ports]  per output port, bit v: downstream VC v is held by
//	                   an input VC here
//
// vaWait and noCredit drop input VCs from the stage that cannot serve
// them until the one event that can end the block: a tail freeing a VC
// at that output, or a credit returning to the held VC.
//
// The ivc -> port and sub-group -> VC-mask tables depend only on
// the geometry, so the arena holds one copy for all its routers.
type Arena struct {
	flits *FlitArena
	cfg   Config
	n     int

	maskWords  int // W: words per ivc mask
	maskStride int // mask words per router: 5W + Ports

	bufs    []Slot
	head    []int8
	count   []int8
	ovc     []int8
	outPort []int8
	credits []int8
	wait    []int32
	masks   []uint64

	ivcPort   []int32  // per ivc: port
	groupMask []uint64 // per sub-group: the VCs alloc.Config.Subgroup maps to it
}

// NewArena builds the shared state slabs for numRouters routers of
// identical cfg geometry, all resolving flits through the given arena.
func NewArena(numRouters int, cfg Config, flits *FlitArena) *Arena {
	if err := cfg.Validate(); err != nil {
		panic("router: invalid config: " + strings.TrimPrefix(err.Error(), "router: "))
	}
	if numRouters <= 0 {
		panic(fmt.Sprintf("router: arena for %d routers", numRouters))
	}
	pv := cfg.Ports * cfg.VCs
	a := &Arena{
		flits:     flits,
		cfg:       cfg,
		n:         numRouters,
		maskWords: (pv + 63) / 64,
	}
	a.maskStride = 5*a.maskWords + cfg.Ports
	a.bufs = make([]Slot, numRouters*pv*cfg.BufDepth)
	for i := range a.bufs {
		a.bufs[i].Flit = NoFlit
	}
	a.head = make([]int8, numRouters*pv)
	a.count = make([]int8, numRouters*pv)
	a.ovc = make([]int8, numRouters*pv)
	a.outPort = make([]int8, numRouters*pv)
	a.credits = make([]int8, numRouters*pv)
	a.wait = make([]int32, numRouters*pv)
	a.masks = make([]uint64, numRouters*a.maskStride)
	for i := range a.ovc {
		a.ovc[i] = -1
		a.credits[i] = int8(cfg.BufDepth)
	}
	a.ivcPort = make([]int32, pv)
	for ivc := 0; ivc < pv; ivc++ {
		a.ivcPort[ivc] = int32(ivc / cfg.VCs)
	}
	a.groupMask = make([]uint64, cfg.VirtualInputs)
	acfg := cfg.Alloc()
	for v := 0; v < cfg.VCs; v++ {
		a.groupMask[acfg.Subgroup(v)] |= 1 << uint(v)
	}
	return a
}

// Router is a cycle-accurate virtual-channel router. Its hot state lives
// in its network's Arena; the struct itself holds slice views into that
// router's segment of each slab, plus cold configuration and scratch.
type Router struct {
	id int32
	// occ counts buffered flits across all input VCs, maintained
	// incrementally (DeliverFlit adds, grant departures subtract) so the
	// activity-gated tick can test quiescence in O(1). Both are int32 so
	// they share a word: the struct stays in its allocation size class.
	occ int32

	cfg     Config
	alloc   alloc.Allocator
	idle    alloc.IdleSkipper // alloc's SkipIdle, nil for a custom allocator without one
	nextDim NextDimFunc
	vcRange VCRangeFunc
	flits   *FlitArena

	ports []PortInfo

	// Arena segment views (see Arena layout).
	buf       []Slot
	head      []int8
	count     []int8
	ovc       []int8
	outPort   []int8
	credits   []int8
	wait      []int32
	nonEmpty  sim.Bitset
	hasOVC    sim.Bitset
	justAlloc sim.Bitset
	vaWait    sim.Bitset
	noCredit  sim.Bitset
	busy      []uint64

	// Geometry tables shared through the arena.
	ivcPort   []int32
	groupMask []uint64

	vaOffset int // rotating VC-allocation priority

	// scratch
	reqs  alloc.RequestSet
	ems   []Emission
	creds []CreditMsg
}

// New builds a router. ports describes the wiring class of each port
// (symmetric in/out). The allocator must match cfg.Alloc() geometry.
// vcRange optionally restricts output-VC assignment per (outPort, dst)
// (nil: no restriction). arena is the shared per-network state arena;
// the router occupies slot id. A nil arena gives the router a private
// single-slot arena with its own flit slab (standalone/test use).
func New(id int, cfg Config, ports []PortInfo, allocator alloc.Allocator, nextDim NextDimFunc, vcRange VCRangeFunc, arena *Arena) *Router {
	if err := cfg.Validate(); err != nil {
		panic("router: invalid config: " + strings.TrimPrefix(err.Error(), "router: "))
	}
	if len(ports) != cfg.Ports {
		panic(fmt.Sprintf("router: %d port infos for %d ports", len(ports), cfg.Ports))
	}
	slot := id
	if arena == nil {
		arena = NewArena(1, cfg, NewFlitArena())
		slot = 0
	}
	if arena.cfg.Ports != cfg.Ports || arena.cfg.VCs != cfg.VCs || arena.cfg.BufDepth != cfg.BufDepth {
		panic(fmt.Sprintf("router %d: arena geometry %d/%d/%d does not match config %d/%d/%d",
			id, arena.cfg.Ports, arena.cfg.VCs, arena.cfg.BufDepth, cfg.Ports, cfg.VCs, cfg.BufDepth))
	}
	if slot < 0 || slot >= arena.n {
		panic(fmt.Sprintf("router %d: arena holds %d slots", id, arena.n))
	}
	pv := cfg.Ports * cfg.VCs
	r := &Router{
		id:      int32(id),
		cfg:     cfg,
		alloc:   allocator,
		nextDim: nextDim,
		vcRange: vcRange,
		flits:   arena.flits,
		ports:   append([]PortInfo(nil), ports...),

		buf:     segment(arena.bufs, slot, pv*cfg.BufDepth),
		head:    segment(arena.head, slot, pv),
		count:   segment(arena.count, slot, pv),
		ovc:     segment(arena.ovc, slot, pv),
		outPort: segment(arena.outPort, slot, pv),
		credits: segment(arena.credits, slot, pv),
		wait:    segment(arena.wait, slot, pv),

		ivcPort:   arena.ivcPort,
		groupMask: arena.groupMask,

		ems:   make([]Emission, 0, cfg.Ports),
		creds: make([]CreditMsg, 0, cfg.Ports),
	}
	w := arena.maskWords
	masks := segment(arena.masks, slot, arena.maskStride)
	r.nonEmpty = masks[:w:w]
	r.hasOVC = masks[w : 2*w : 2*w]
	r.justAlloc = masks[2*w : 3*w : 3*w]
	r.vaWait = masks[3*w : 4*w : 4*w]
	r.noCredit = masks[4*w : 5*w : 5*w]
	r.busy = masks[5*w:]
	r.reqs.Config = cfg.Alloc()
	r.idle, _ = allocator.(alloc.IdleSkipper)
	return r
}

// ID returns the router's index in its network.
func (r *Router) ID() int { return int(r.id) }

// Flits returns the flit arena the router resolves FlitIDs through.
func (r *Router) Flits() *FlitArena { return r.flits }

// DeliverFlit places the flit named id into input (port, vc): the
// standalone form of Deliver, which reads the flit's record once to fill
// the slot. The caller must have set the flit's Route for this router.
func (r *Router) DeliverFlit(port, vc int, id FlitID) {
	f := r.flits.At(id)
	s := Slot{Flit: id, Dst: int32(f.Dst), Hops: int16(f.Hops), Route: int8(f.Route), Type: f.Type}
	if int(s.Dst) != f.Dst || int(s.Hops) != f.Hops || int(s.Route) != f.Route {
		panic(fmt.Sprintf("router %d: flit dst %d, hops %d or route %d does not fit a buffer slot", r.id, f.Dst, f.Hops, f.Route))
	}
	f.VC = vc
	r.Deliver(port, vc, s)
}

// Deliver places an arriving flit into input (port, vc); s.Route must be
// its output port at this router. It panics on buffer overflow, which
// would indicate a flow-control bug.
func (r *Router) Deliver(port, vc int, s Slot) {
	ivc := port*r.cfg.VCs + vc
	if int(r.count[ivc]) >= r.cfg.BufDepth {
		panic(fmt.Sprintf("router %d: buffer overflow at port %d vc %d", r.id, port, vc))
	}
	if s.Route < 0 || int(s.Route) >= r.cfg.Ports {
		panic(fmt.Sprintf("router %d: flit delivered with invalid route %d", r.id, s.Route))
	}
	if r.count[ivc] == 0 {
		r.nonEmpty.Set(ivc)
	}
	at := int(r.head[ivc]) + int(r.count[ivc])
	if at >= r.cfg.BufDepth {
		at -= r.cfg.BufDepth
	}
	r.buf[ivc*r.cfg.BufDepth+at] = s
	r.count[ivc]++
	r.occ++
}

// DeliverCredit returns one credit for downstream VC vc of outPort. Only
// a first credit (0 -> 1) can unblock a holder, so the common case is an
// increment and the rest is out of line.
func (r *Router) DeliverCredit(outPort, vc int) {
	cvi := outPort*r.cfg.VCs + vc
	c := r.credits[cvi]
	if c == 0 || int(c) >= r.cfg.BufDepth {
		r.creditEdge(outPort, vc)
	}
	r.credits[cvi] = c + 1
}

// creditEdge panics on a credit overflow, and on a first credit returns
// the holder of downstream VC vc of outPort, if it has one, to the
// switch-allocation request set.
func (r *Router) creditEdge(outPort, vc int) {
	if int(r.credits[outPort*r.cfg.VCs+vc]) >= r.cfg.BufDepth {
		panic(fmt.Sprintf("router %d: credit overflow at port %d vc %d", r.id, outPort, vc))
	}
	for wi, w := range r.noCredit {
		for ; w != 0; w &= w - 1 {
			ivc := wi<<6 + bits.TrailingZeros64(w)
			if int(r.outPort[ivc]) == outPort && int(r.ovc[ivc]) == vc {
				r.noCredit.Clear(ivc)
				return
			}
		}
	}
}

// Busy reports whether the router holds any buffered flits. An idle
// router's Tick is exactly the empty tick SkipIdle replays — no
// emissions, no credits, no requests to the allocator — so the network's
// activity gate only needs to wake a router on a credit when Busy is
// true: credits are applied eagerly above, and a credit at an empty
// router cannot create work until a flit arrives (which sets the bit).
func (r *Router) Busy() bool { return r.occ > 0 }

// BufferSpace returns the free flit slots of input (port, vc); the
// network interface uses it to gate injection at local ports.
func (r *Router) BufferSpace(port, vc int) int {
	return r.cfg.BufDepth - int(r.count[port*r.cfg.VCs+vc])
}

// Occupancy returns the number of buffered flits across all input VCs.
// It recounts from the per-VC ring counters rather than trusting the
// incremental state, and panics unless the occupancy counter and the
// nonEmpty/hasOVC/noCredit mask words agree with count/ovc/credits,
// every vaWait head is pending and faces only busy VCs, and every
// occupied slot's header agrees with the record of the flit it names;
// tests call it to cross-check the incremental state against what it
// summarises.
func (r *Router) Occupancy() int {
	n := 0
	for ivc, c := range r.count {
		n += int(c)
		for i := 0; i < int(c); i++ {
			s := r.buf[ivc*r.cfg.BufDepth+(int(r.head[ivc])+i)%r.cfg.BufDepth]
			if s.Flit < 0 || int(s.Flit) >= r.flits.Cap() {
				panic(fmt.Sprintf("router %d: slot %d of ivc %d names no flit (%d)", r.id, i, ivc, s.Flit))
			}
			if f := r.flits.At(s.Flit); s.Type != f.Type || int(s.Dst) != f.Dst {
				panic(fmt.Sprintf("router %d: slot %d of ivc %d holds flit %d as %v to %d, its record says %v to %d",
					r.id, i, ivc, s.Flit, s.Type, s.Dst, f.Type, f.Dst))
			}
		}
		bit := uint64(1) << uint(ivc&63)
		if (r.nonEmpty[ivc>>6]&bit != 0) != (c > 0) {
			panic(fmt.Sprintf("router %d: nonEmpty mask disagrees with count %d at ivc %d", r.id, c, ivc))
		}
		if (r.hasOVC[ivc>>6]&bit != 0) != (r.ovc[ivc] >= 0) {
			panic(fmt.Sprintf("router %d: hasOVC mask disagrees with ovc %d at ivc %d", r.id, r.ovc[ivc], ivc))
		}
		out := int(r.outPort[ivc])
		starved := r.ovc[ivc] >= 0 && r.ports[out].Kind == topology.Link && r.credits[out*r.cfg.VCs+int(r.ovc[ivc])] == 0
		if (r.noCredit[ivc>>6]&bit != 0) != starved {
			panic(fmt.Sprintf("router %d: noCredit mask disagrees with ovc %d at ivc %d", r.id, r.ovc[ivc], ivc))
		}
		if r.vaWait[ivc>>6]&bit != 0 {
			if c == 0 || r.ovc[ivc] >= 0 {
				panic(fmt.Sprintf("router %d: vaWait set at ivc %d, which awaits no VC", r.id, ivc))
			}
			front := r.buf[ivc*r.cfg.BufDepth+int(r.head[ivc])]
			lo, hi := 0, r.cfg.VCs
			if r.vcRange != nil {
				lo, hi = r.vcRange(out, int(front.Dst))
			}
			if out != int(front.Route) || vcSpan(lo, hi)&^r.busy[out] != 0 {
				panic(fmt.Sprintf("router %d: vaWait set at ivc %d, but an admitted VC at port %d is free", r.id, ivc, out))
			}
		}
	}
	if n != int(r.occ) {
		panic(fmt.Sprintf("router %d: occupancy counter %d but %d flits buffered", r.id, r.occ, n))
	}
	return n
}

// Credits exposes the credit count for (outPort, vc); used by tests.
func (r *Router) Credits(outPort, vc int) int { return int(r.credits[outPort*r.cfg.VCs+vc]) }

// Tick is Advance for a standalone router whose caller reads the flit
// records: it also writes each emitted flit's granted output VC and hop
// count back into its record. The network calls Advance and carries both
// on the link event instead.
func (r *Router) Tick() (ems []Emission, credits []CreditMsg, quiesced bool) {
	ems, credits, quiesced = r.Advance()
	for i := range ems {
		f := r.flits.At(ems[i].Flit)
		f.VC, f.Hops = int(ems[i].VC), int(ems[i].Hops)
	}
	return ems, credits, quiesced
}

// Advance moves the router one cycle on: VC allocation, then switch
// allocation, then switch traversal of the winners. It returns the flits
// leaving through output ports, the credits freed at input ports, and
// whether the router quiesced — no flits remain buffered, so until the
// next delivery every further cycle would be the idle no-op SkipIdle can
// replay. The activity-gated network tick clears a quiesced router's
// activity bit and stops advancing it.
//
// It reads and writes only this router's arena segment: everything a hop
// needs of a flit is in its buffer slot. Both returned slices are
// router-owned scratch, valid only until the next Advance call; callers
// must consume (or copy) them within the cycle.
func (r *Router) Advance() (ems []Emission, credits []CreditMsg, quiesced bool) {
	r.ems = r.ems[:0]
	r.creds = r.creds[:0]
	if r.cfg.NonSpeculative {
		for i := range r.justAlloc {
			r.justAlloc[i] = 0
		}
	}
	r.allocateVCs()
	grants := r.alloc.Allocate(r.buildRequests())
	for _, g := range grants {
		req := g.Request(&r.reqs)
		ivc := req.Port*r.cfg.VCs + req.VC
		r.wait[ivc] = 0
		h := int(r.head[ivc])
		s := r.buf[ivc*r.cfg.BufDepth+h]
		h++
		if h == r.cfg.BufDepth {
			h = 0
		}
		r.head[ivc] = int8(h)
		r.count[ivc]--
		r.occ--
		if r.count[ivc] == 0 {
			r.nonEmpty.Clear(ivc)
		}
		ovc := r.ovc[ivc]
		if r.ports[g.OutPort].Kind == topology.Link {
			cvi := g.OutPort*r.cfg.VCs + int(ovc)
			r.credits[cvi]--
			if r.credits[cvi] < 0 {
				panic(fmt.Sprintf("router %d: credit underflow at port %d vc %d", r.id, g.OutPort, ovc))
			}
			s.Hops++
			// A granted VC had credit, so its noCredit bit is clear; a
			// tail takes the VC with it, so only a holder that stays can
			// run out.
			if s.Type.IsTail() {
				r.busy[g.OutPort] &^= 1 << uint(ovc)
				r.wakeVA(g.OutPort)
			} else if r.credits[cvi] == 0 {
				r.noCredit.Set(ivc)
			}
		}
		if s.Type.IsTail() {
			r.ovc[ivc] = -1
			r.hasOVC.Clear(ivc)
		}
		r.ems = append(r.ems, Emission{OutPort: g.OutPort, Slot: s, VC: ovc})
		if r.ports[req.Port].Kind == topology.Link {
			r.creds = append(r.creds, CreditMsg{Port: req.Port, VC: req.VC})
		}
	}
	return r.ems, r.creds, r.occ == 0
}

// SkipIdle fast-forwards the router across cycles consecutive ticks
// during which it held no buffered flits. An idle Tick emits nothing and
// frees no credits; its only persistent effects are the VC-allocation
// priority rotation, the clearing of the NonSpeculative just-allocated
// marks, and whatever the allocator does with an empty request set —
// which built-in allocators compress to O(1) via alloc.IdleSkipper. A
// custom allocator without SkipIdle gets the literal empty Allocate
// calls, so gated and dense runs stay byte-identical for any allocator.
//
// The caller asserts the router was empty for the skipped span; current
// buffer contents are irrelevant (the activity-gated tick calls SkipIdle
// at reactivation, after the cycle's deliveries have already landed) —
// an idle tick's effects touch nothing the buffers feed.
func (r *Router) SkipIdle(cycles int) {
	r.vaOffset += cycles
	if r.cfg.NonSpeculative {
		for i := range r.justAlloc {
			r.justAlloc[i] = 0
		}
	}
	if r.idle != nil {
		r.idle.SkipIdle(cycles)
		return
	}
	r.reqs.Requests = r.reqs.Requests[:0]
	for i := 0; i < cycles; i++ {
		r.alloc.Allocate(&r.reqs)
	}
}

// allocateVCs performs the VC allocation stage: head flits at the front
// of their buffers acquire an output VC at the downstream router. Only
// the input VCs awaiting one — nonEmpty, not hasOVC and not vaWait — are
// visited, in a rotating order for long-run fairness: ascending from the
// priority offset to the top, then from zero up to the offset.
func (r *Router) allocateVCs() {
	var pending uint64
	for wi, w := range r.nonEmpty {
		pending |= w &^ r.hasOVC[wi] &^ r.vaWait[wi]
	}
	if pending != 0 {
		total := r.cfg.Ports * r.cfg.VCs
		start := r.vaOffset % total
		r.allocateVCRange(start, total)
		r.allocateVCRange(0, start)
	}
	r.vaOffset++
}

// allocateVCRange runs VC allocation for the pending input VCs in
// [lo, hi), ascending. Allocating one input VC changes no other's
// pending bit, so each word is read once.
func (r *Router) allocateVCRange(lo, hi int) {
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		w := r.nonEmpty[wi] &^ r.hasOVC[wi] &^ r.vaWait[wi]
		if wi == lo>>6 {
			w = w >> uint(lo&63) << uint(lo&63)
		}
		if top := hi - wi<<6; top < 64 {
			w &= 1<<uint(top) - 1
		}
		for ; w != 0; w &= w - 1 {
			r.allocateVC(wi<<6 + bits.TrailingZeros64(w))
		}
	}
}

// allocateVC tries to acquire an output VC for the head flit fronting
// input VC ivc. On failure every VC the head may take at its output is
// busy, and only a tail freeing one can change that, so the head parks
// in vaWait with its output recorded until wakeVA returns it.
func (r *Router) allocateVC(ivc int) {
	front := &r.buf[ivc*r.cfg.BufDepth+int(r.head[ivc])]
	if !front.Type.IsHead() {
		// A body flit without a valid output VC cannot occur: the VC
		// is held from head grant to tail departure.
		panic(fmt.Sprintf("router %d: body flit at front of unallocated VC", r.id))
	}
	out := int(front.Route)
	v := 0
	if r.ports[out].Kind != topology.Local {
		if v = r.chooseOVC(out, int(front.Dst)); v < 0 {
			r.outPort[ivc] = int8(out)
			r.vaWait.Set(ivc)
			return
		}
		r.busy[out] |= 1 << uint(v)
		if r.credits[out*r.cfg.VCs+v] == 0 {
			r.noCredit.Set(ivc)
		}
	}
	// Ejection needs no downstream VC (v stays 0): the sink absorbs at
	// link bandwidth, serialised per output port by switch allocation.
	r.ovc[ivc], r.outPort[ivc] = int8(v), int8(out)
	r.hasOVC.Set(ivc)
	if r.cfg.NonSpeculative {
		r.justAlloc.Set(ivc)
	}
}

// wakeVA returns every head waiting on output out to VC allocation: a
// tail has just freed one of out's VCs. The freed VC may lie outside a
// woken head's admitted range (a torus dateline class); that head fails
// its next try and parks again, exactly as its retry would have, so no
// choice changes. Clearing a busy bit happens nowhere else.
func (r *Router) wakeVA(out int) {
	for wi, w := range r.vaWait {
		for ; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			if int(r.outPort[wi<<6+b]) == out {
				r.vaWait[wi] &^= 1 << uint(b)
			}
		}
	}
}

// chooseOVC applies the configured Section 2.3 policy to output port out.
func (r *Router) chooseOVC(out, dst int) int {
	vcs := r.cfg.VCs
	lo, hi := 0, vcs
	if r.vcRange != nil {
		lo, hi = r.vcRange(out, dst)
	}
	busy := r.busy[out]
	free := ^busy & vcSpan(lo, hi)
	if free == 0 {
		return -1
	}
	ctx := vaContext{
		free:      free,
		busy:      busy,
		credits:   r.credits[out*vcs : out*vcs+vcs],
		groupMask: r.groupMask,
		nextDim:   r.nextDim(out, dst),
	}
	return r.cfg.Policy.choose(&ctx)
}

// buildRequests assembles this cycle's switch-allocation request set:
// every input VC whose front flit has an output VC with a downstream
// credit (hasOVC and not noCredit) requests its packet's output port, in
// ascending (port, vc) order.
func (r *Router) buildRequests() *alloc.RequestSet {
	r.reqs.Requests = r.reqs.Requests[:0]
	for wi, w := range r.nonEmpty {
		// VA and SA may not overlap in the same cycle when NonSpeculative
		// (justAlloc stays zero otherwise).
		for w &= r.hasOVC[wi] &^ r.justAlloc[wi] &^ r.noCredit[wi]; w != 0; w &= w - 1 {
			ivc := wi<<6 + bits.TrailingZeros64(w)
			port := int(r.ivcPort[ivc])
			r.reqs.Requests = append(r.reqs.Requests, alloc.Request{
				Port: port, VC: ivc - port*r.cfg.VCs, OutPort: int(r.outPort[ivc]), Age: int(r.wait[ivc]),
			})
			r.wait[ivc]++
		}
	}
	return &r.reqs
}
