package router

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"vix/internal/alloc"
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

	// NonSpeculative takes the switch request set before VC allocation
	// instead of after it: a head flit that wins VC allocation this cycle
	// competes in switch allocation only from the next cycle. The default
	// (false) models the paper's optimised pipeline (Figure 6b, citing Peh
	// & Dally), where heads speculatively bid for the switch with VA.
	NonSpeculative bool
}

// Bounds of the router's packed fields: ring heads, counts and credits
// are int8 slab fields bounded by BufDepth; routes and output ports are
// int8 fields bounded by Ports; a Slot counts hops in an int16.
const (
	MaxBufDepth = math.MaxInt8
	MaxPorts    = alloc.MaxPorts
	MaxHops     = math.MaxInt16
)

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.BufDepth <= 0 || c.BufDepth > MaxBufDepth {
		return fmt.Errorf("router: BufDepth must be in 1..%d, got %d", MaxBufDepth, c.BufDepth)
	}
	if c.Ports > MaxPorts {
		return fmt.Errorf("router: Ports must be at most %d, got %d", MaxPorts, c.Ports)
	}
	if err := c.Policy.Validate(); err != nil {
		return err
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
// id to its record.
//
// Only a head is routed and VC-allocated (wormhole switching): body and
// tail flits follow the output and output VC their head took. So Dst and
// Route are read on heads alone, and the second word is a union: a
// head's destination, a body or tail flit's Seq.
type Slot struct {
	Flit FlitID
	// DstSeq is the destination terminal on a head (or head-tail) flit
	// and the flit's index within its packet on a body or tail flit; a
	// head's index is always 0 (see Seq).
	DstSeq int32
	Hops   int16 // link traversals so far
	// Route is the output port at the router buffering a head. On an
	// Emission it is still the route just taken until the network layer
	// overwrites it with the lookahead route at the next router; a body
	// or tail flit keeps the route its last router gave it.
	Route int8
	Type  FlitType
}

// Seq returns the flit's index within its packet.
func (s Slot) Seq() int {
	if s.Type.IsHead() {
		return 0
	}
	return int(s.DstSeq)
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
// policy chooses freely among the VCs the range admits. The router only
// asks about a head's own routed port (its lookahead route), so a func
// may derive the range from dst alone. A nil func (the default) admits
// every VC.
type VCRangeFunc func(outPort, dst int) (lo, hi int)

// Arena holds the state of every router in one network as contiguous
// structure-of-arrays slabs. Each router owns one exact-size segment of
// each slab, named by its slot, so a full network tick walks linear memory
// in router order; the Router struct keeps only its slot and its scalars.
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
//	nonEmpty [W]      count[ivc] > 0
//	hasOVC   [W]      ovc[ivc] >= 0
//	vaWait   [W]      pending head (nonEmpty, no ovc) whose admitted VCs
//	                  at outPort[ivc] were all busy when VA last tried it
//	noCredit [W]      ovc held at a link output with zero credits
//	ready    [W]      this cycle's switch requests: nonEmpty & hasOVC &^
//	                  noCredit, taken once per Advance
//	busy     [Ports]  per output port, bit v: downstream VC v is held by
//	                  an input VC here
//	rows     [R]      scratch of the grant loop: crossbar rows granted
//	                  this cycle (R = ceil(Rows/64))
//
// and, per port, the port's wiring kind (ports) and the router's scratch:
// emissions (ems) and freed credits (creds), at most one of each per
// port a cycle. Advance returns its segments of these two, so the sharded
// tick hands router-owned slices from phase A to phase B.
//
// Each router's switch-allocation request set (one alloc.RequestSet per
// router, in the sets slab) is the packed form over the same segments:
// ready as its Ready words, outPort as Out and wait as Age. A grant names
// its input VC by ivc.
//
// vaWait and noCredit drop input VCs from the stage that cannot serve
// them until the one event that can end the block: a tail freeing a VC
// at that output, or a credit returning to the held VC.
//
// The ivc -> port, ivc -> crossbar row and sub-group -> VC-mask tables
// depend only on the geometry, so the arena holds one copy for all its
// routers.
type Arena struct {
	records Records
	cfg     Config // the geometry: Ports, VCs, VirtualInputs, BufDepth, Partition
	n       int
	pv      int // input VCs per router: Ports*VCs

	maskWords  int // W: words per ivc mask
	maskStride int // mask words per router: 5W + Ports + R

	bufs    []Slot
	head    []int8
	count   []int8
	ovc     []int8
	outPort []int8
	credits []int8
	wait    []int32
	masks   []uint64
	sets    []alloc.RequestSet
	ports   []topology.PortKind
	ems     []Emission
	creds   []CreditMsg

	ivcPort   []int32  // per ivc: port
	ivcRow    []int32  // per ivc: crossbar row, alloc.Config.Row
	groupMask []uint64 // per sub-group: the VCs alloc.Config.Subgroup maps to it
}

// NewArena builds the shared state slabs for numRouters routers of
// identical cfg geometry, whose Occupancy checks resolve flits through
// records.
func NewArena(numRouters int, cfg Config, records Records) *Arena {
	if err := cfg.Validate(); err != nil {
		panic("router: invalid config: " + strings.TrimPrefix(err.Error(), "router: "))
	}
	if numRouters <= 0 {
		panic(fmt.Sprintf("router: arena for %d routers", numRouters))
	}
	pv := cfg.Ports * cfg.VCs
	a := &Arena{
		records:   records,
		cfg:       Config{Ports: cfg.Ports, VCs: cfg.VCs, VirtualInputs: cfg.VirtualInputs, BufDepth: cfg.BufDepth, Partition: cfg.Partition},
		n:         numRouters,
		pv:        pv,
		maskWords: (pv + 63) / 64,
	}
	a.maskStride = 5*a.maskWords + cfg.Ports + (cfg.Alloc().Rows()+63)/64
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
	a.sets = make([]alloc.RequestSet, numRouters)
	a.ports = make([]topology.PortKind, numRouters*cfg.Ports)
	a.ems = make([]Emission, numRouters*cfg.Ports)
	a.creds = make([]CreditMsg, numRouters*cfg.Ports)
	for i := range a.ovc {
		a.ovc[i] = -1
		a.credits[i] = int8(cfg.BufDepth)
	}
	acfg := cfg.Alloc()
	a.ivcPort = make([]int32, pv)
	a.ivcRow = make([]int32, pv)
	for ivc := 0; ivc < pv; ivc++ {
		a.ivcPort[ivc] = int32(ivc / cfg.VCs)
		a.ivcRow[ivc] = int32(acfg.Row(ivc/cfg.VCs, ivc%cfg.VCs))
	}
	a.groupMask = make([]uint64, cfg.VirtualInputs)
	for v := 0; v < cfg.VCs; v++ {
		a.groupMask[acfg.Subgroup(v)] |= 1 << uint(v)
	}
	return a
}

// segment returns router slot's n-entry segment of slab, capped so that
// appending to or reslicing the view cannot reach the next router's.
func segment[T any](slab []T, slot, n int) []T {
	return slab[slot*n : (slot+1)*n : (slot+1)*n]
}

// seg locates one router's segments in its arena, as offsets into the
// shared slabs, so that taking it on entry to a method costs a few
// multiplies and no slice headers: at is the router's first entry in the
// per-ivc slabs (a bufs ring starts at (at+ivc)*BufDepth), ports its first
// in the port-kind and scratch slabs, and m the first word of its masks,
// w words each (see Arena). Its ready words, outPort and wait are also its
// request set's Ready, Out and Age. A seg is passed by value: it stays in
// registers.
type seg struct{ at, ports, m, w int }

// seg returns router slot's offsets.
func (a *Arena) seg(slot int) seg {
	return seg{at: slot * a.pv, ports: slot * a.cfg.Ports, m: slot * a.maskStride, w: a.maskWords}
}

// The first words of the router's masks in the mask slab.
func (sg seg) nonEmpty() int { return sg.m }
func (sg seg) hasOVC() int   { return sg.m + sg.w }
func (sg seg) vaWait() int   { return sg.m + 2*sg.w }
func (sg seg) noCredit() int { return sg.m + 3*sg.w }
func (sg seg) ready() int    { return sg.m + 4*sg.w }
func (sg seg) busy() int     { return sg.m + 5*sg.w }

// has reports whether bit i of the mask starting at word is set.
func (a *Arena) has(word, i int) bool { return a.masks[word+i>>6]>>uint(i&63)&1 != 0 }

// Router is a cycle-accurate virtual-channel router. Its state lives in
// its network's Arena, in the segments of slot; the struct holds only
// what is its own and scalar.
type Router struct {
	id int32
	// occ counts buffered flits across all input VCs, maintained
	// incrementally (DeliverFlit adds, grant departures subtract) so the
	// activity-gated tick can test quiescence in O(1).
	occ  int32
	slot int32

	policy policy // Config.Policy, resolved once
	// nonSpec is Config.NonSpeculative. list is set when alloc is not a
	// built-in kind: it may read the request list, so Advance fills
	// reqs.Requests as well.
	nonSpec, list bool

	vaOffset int // rotating VC-allocation priority

	arena   *Arena
	alloc   alloc.Allocator
	idle    alloc.IdleSkipper // alloc's SkipIdle, nil for a custom allocator without one
	nextDim NextDimFunc
	vcRange VCRangeFunc
}

// New builds a router. ports describes the wiring class of each port
// (symmetric in/out). The allocator must match cfg.Alloc() geometry.
// vcRange optionally restricts output-VC assignment per (outPort, dst)
// (nil: no restriction). arena is the shared per-network state arena;
// the router occupies slot id. A nil arena gives the router a private
// single-slot arena with its own FlitArena (standalone/test use).
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
	// The arena's crossbar-row and sub-group tables come from its own
	// geometry, so the router's must match it.
	if arena.cfg.Alloc() != cfg.Alloc() || arena.cfg.BufDepth != cfg.BufDepth {
		panic(fmt.Sprintf("router %d: arena geometry %+v, depth %d does not match config %+v, depth %d",
			id, arena.cfg.Alloc(), arena.cfg.BufDepth, cfg.Alloc(), cfg.BufDepth))
	}
	if slot < 0 || slot >= arena.n {
		panic(fmt.Sprintf("router %d: arena holds %d slots", id, arena.n))
	}
	r := &Router{
		id:      int32(id),
		slot:    int32(slot),
		policy:  cfg.Policy.resolve(),
		nonSpec: cfg.NonSpeculative,
		list:    !alloc.IsBuiltin(allocator),
		arena:   arena,
		alloc:   allocator,
		nextDim: nextDim,
		vcRange: vcRange,
	}
	r.idle, _ = allocator.(alloc.IdleSkipper)
	sg := arena.seg(slot)
	for p, info := range ports {
		arena.ports[sg.ports+p] = info.Kind
	}
	ready := sg.ready()
	arena.sets[slot] = alloc.RequestSet{
		Config: cfg.Alloc(),
		Ready:  arena.masks[ready : ready+sg.w : ready+sg.w],
		Out:    segment(arena.outPort, slot, arena.pv),
		Age:    segment(arena.wait, slot, arena.pv),
	}
	return r
}

// ID returns the router's index in its network.
func (r *Router) ID() int { return int(r.id) }

// Flits returns a standalone router's flit arena, and nil for a router
// whose flit records its network keeps.
func (r *Router) Flits() *FlitArena {
	a, _ := r.arena.records.(*FlitArena)
	return a
}

// DeliverFlit places the flit named id into input (port, vc): the
// standalone form of Deliver, which reads the flit's record once to fill
// the slot. The caller must have set the flit's Route for this router.
func (r *Router) DeliverFlit(port, vc int, id FlitID) {
	f := r.Flits().At(id)
	word := f.Dst
	if !f.Type.IsHead() {
		word = f.Seq
	}
	s := Slot{Flit: id, DstSeq: int32(word), Hops: int16(f.Hops), Route: int8(f.Route), Type: f.Type}
	if int(s.DstSeq) != word || int(s.Hops) != f.Hops || int(s.Route) != f.Route {
		panic(fmt.Sprintf("router %d: flit dst %d (on a head) or seq %d (else), hops %d or route %d does not fit a buffer slot",
			r.id, f.Dst, f.Seq, f.Hops, f.Route))
	}
	f.VC = vc
	r.Deliver(port, vc, s)
}

// Deliver places an arriving flit into input (port, vc); s.Route must be
// its output port at this router. It panics on buffer overflow, which
// would indicate a flow-control bug.
func (r *Router) Deliver(port, vc int, s Slot) {
	a := r.arena
	depth := a.cfg.BufDepth
	sg := a.seg(int(r.slot))
	ivc := port*a.cfg.VCs + vc
	i := sg.at + ivc
	c := a.count[i]
	if int(c) >= depth {
		panic(fmt.Sprintf("router %d: buffer overflow at port %d vc %d", r.id, port, vc))
	}
	if s.Route < 0 || int(s.Route) >= a.cfg.Ports {
		panic(fmt.Sprintf("router %d: flit delivered with invalid route %d", r.id, s.Route))
	}
	if c == 0 {
		a.masks[sg.nonEmpty()+ivc>>6] |= 1 << uint(ivc&63)
	}
	at := int(a.head[i]) + int(c)
	if at >= depth {
		at -= depth
	}
	a.bufs[i*depth+at] = s
	a.count[i] = c + 1
	r.occ++
}

// DeliverCredit returns one credit for downstream VC vc of outPort. Only
// a first credit (0 -> 1) can unblock a holder, so the common case is an
// increment and the rest is out of line.
func (r *Router) DeliverCredit(outPort, vc int) {
	a := r.arena
	i := a.seg(int(r.slot)).at + outPort*a.cfg.VCs + vc
	c := a.credits[i]
	if c == 0 || int(c) >= a.cfg.BufDepth {
		r.creditEdge(outPort, vc)
	}
	a.credits[i] = c + 1
}

// creditEdge panics on a credit overflow, and on a first credit returns
// the holder of downstream VC vc of outPort, if it has one, to the
// switch-allocation request set.
func (r *Router) creditEdge(outPort, vc int) {
	a, sg := r.arena, r.arena.seg(int(r.slot))
	if int(a.credits[sg.at+outPort*a.cfg.VCs+vc]) >= a.cfg.BufDepth {
		panic(fmt.Sprintf("router %d: credit overflow at port %d vc %d", r.id, outPort, vc))
	}
	for wi, w := range a.masks[sg.noCredit() : sg.noCredit()+a.maskWords] {
		for ; w != 0; w &= w - 1 {
			ivc := wi<<6 + bits.TrailingZeros64(w)
			if int(a.outPort[sg.at+ivc]) == outPort && int(a.ovc[sg.at+ivc]) == vc {
				a.masks[sg.noCredit()+ivc>>6] &^= 1 << uint(ivc&63)
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
	a := r.arena
	return a.cfg.BufDepth - int(a.count[a.seg(int(r.slot)).at+port*a.cfg.VCs+vc])
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
	a, sg := r.arena, r.arena.seg(int(r.slot))
	vcs, depth := a.cfg.VCs, a.cfg.BufDepth
	n := 0
	for ivc, c := range a.count[sg.at : sg.at+a.pv] {
		n += int(c)
		i := sg.at + ivc
		// The ring's occupied slots are at most two contiguous spans: from
		// the head to the end of the ring, then from its start.
		ring := a.bufs[i*depth : (i+1)*depth]
		h := int(a.head[i])
		if c > 0 {
			first := min(int(c), depth-h)
			r.checkSlots(ivc, 0, ring[h:h+first])
			r.checkSlots(ivc, first, ring[:int(c)-first])
		}
		ovc := a.ovc[i]
		if a.has(sg.nonEmpty(), ivc) != (c > 0) {
			panic(fmt.Sprintf("router %d: nonEmpty mask disagrees with count %d at ivc %d", r.id, c, ivc))
		}
		if a.has(sg.hasOVC(), ivc) != (ovc >= 0) {
			panic(fmt.Sprintf("router %d: hasOVC mask disagrees with ovc %d at ivc %d", r.id, ovc, ivc))
		}
		out := int(a.outPort[i])
		starved := ovc >= 0 && a.ports[sg.ports+out] == topology.Link && a.credits[sg.at+out*vcs+int(ovc)] == 0
		if a.has(sg.noCredit(), ivc) != starved {
			panic(fmt.Sprintf("router %d: noCredit mask disagrees with ovc %d at ivc %d", r.id, ovc, ivc))
		}
		if a.has(sg.vaWait(), ivc) {
			if c == 0 || ovc >= 0 {
				panic(fmt.Sprintf("router %d: vaWait set at ivc %d, which awaits no VC", r.id, ivc))
			}
			front := ring[h]
			lo, hi := 0, vcs
			if r.vcRange != nil {
				lo, hi = r.vcRange(out, int(front.DstSeq)) // a head: its destination
			}
			if out != int(front.Route) || vcSpan(lo, hi)&^a.masks[sg.busy()+out] != 0 {
				panic(fmt.Sprintf("router %d: vaWait set at ivc %d, but an admitted VC at port %d is free", r.id, ivc, out))
			}
		}
	}
	if n != int(r.occ) {
		panic(fmt.Sprintf("router %d: occupancy counter %d but %d flits buffered", r.id, r.occ, n))
	}
	return n
}

// checkSlots panics unless every slot of span, the buffered flits of ivc
// from the from-th on, agrees with the record of the flit it names.
func (r *Router) checkSlots(ivc, from int, span []Slot) {
	records := r.arena.records
	for i, s := range span {
		typ, dst, ok := records.Header(s.Flit, s.Seq())
		if !ok {
			panic(fmt.Sprintf("router %d: slot %d of ivc %d names no flit (%d, seq %d)", r.id, from+i, ivc, s.Flit, s.Seq()))
		}
		if s.Type != typ || s.Type.IsHead() && int(s.DstSeq) != dst {
			panic(fmt.Sprintf("router %d: slot %d of ivc %d holds flit %d.%d as %v (word %d), its record says %v to %d",
				r.id, from+i, ivc, s.Flit, s.Seq(), s.Type, s.DstSeq, typ, dst))
		}
	}
}

// Credits exposes the credit count for (outPort, vc); used by tests.
func (r *Router) Credits(outPort, vc int) int {
	a := r.arena
	return int(a.credits[a.seg(int(r.slot)).at+outPort*a.cfg.VCs+vc])
}

// Tick is Advance for a standalone router whose caller reads the flit
// records: it also writes each emitted flit's granted output VC and hop
// count back into its record. The network calls Advance and carries both
// on the link event instead.
func (r *Router) Tick() (ems []Emission, credits []CreditMsg, quiesced bool) {
	ems, credits, quiesced = r.Advance()
	flits := r.Flits()
	for i := range ems {
		f := flits.At(ems[i].Flit)
		f.VC, f.Hops = int(ems[i].VC), int(ems[i].Hops)
	}
	return ems, credits, quiesced
}

// Advance moves the router one cycle on: VC allocation, then switch
// allocation, then switch traversal of the winners. Under NonSpeculative
// the switch request set is taken before VC allocation, which writes only
// heads holding no output VC — none of them in the set — so the stage
// order alone holds a new head out until the next cycle. It returns the
// flits leaving through output ports, the credits freed at input ports,
// and whether the router quiesced — no flits remain buffered, so until the
// next delivery every further cycle would be the idle no-op SkipIdle can
// replay. The activity-gated network tick clears a quiesced router's
// activity bit and stops advancing it.
//
// It reads and writes only this router's arena segments: everything a hop
// needs of a flit is in its buffer slot. Both returned slices are the
// router's segments of the arena's scratch, valid only until the next
// Advance call; callers must consume (or copy) them within the cycle.
func (r *Router) Advance() (ems []Emission, credits []CreditMsg, quiesced bool) {
	a := r.arena
	slot := int(r.slot)
	sg := a.seg(slot)
	reqs := &a.sets[slot]
	if r.nonSpec {
		r.takeRequests(sg, reqs.Ready)
		r.allocateVCs(sg)
	} else {
		r.allocateVCs(sg)
		r.takeRequests(sg, reqs.Ready)
	}
	if r.list {
		r.listRequests(reqs)
	}
	ready, outPort, wait := reqs.Ready, reqs.Out, reqs.Age
	grants := r.alloc.Allocate(reqs)
	// Every request waited this cycle; a granted one's wait restarts below.
	for wi, w := range ready {
		for ; w != 0; w &= w - 1 {
			wait[wi<<6+bits.TrailingZeros64(w)]++
		}
	}
	// A grant the router cannot carry out panics. Lowering a granted VC's
	// request refuses a second grant to it. The loop indexes local views
	// of the router's segments: the compiler keeps their headers in
	// registers, where an arena field would be reloaded after every store.
	ems = a.ems[sg.ports : sg.ports : sg.ports+a.cfg.Ports]
	credits = a.creds[sg.ports : sg.ports : sg.ports+a.cfg.Ports]
	if len(grants) == 0 {
		return ems, credits, r.occ == 0
	}
	vcs, depth, pv, w := a.cfg.VCs, a.cfg.BufDepth, a.pv, sg.w
	bufs := a.bufs[sg.at*depth : (sg.at+pv)*depth]
	head, count, ovcs, cred := a.head[sg.at:sg.at+pv], a.count[sg.at:sg.at+pv], a.ovc[sg.at:sg.at+pv], a.credits[sg.at:sg.at+pv]
	ports := a.ports[sg.ports : sg.ports+a.cfg.Ports]
	masks := a.masks[sg.m : sg.m+a.maskStride] // nonEmpty, hasOVC, vaWait, noCredit, ready, busy, rows
	rows := masks[5*w+a.cfg.Ports:]
	clear(rows)
	var granted [2]uint64 // outputs granted so far: MaxPorts < 128
	for gi, g := range grants {
		ivc, out := g.IVC, g.OutPort
		if uint(ivc) >= uint(len(outPort)) || ready[ivc>>6]>>uint(ivc&63)&1 == 0 {
			panic(fmt.Sprintf("router %d: a grant sends input VC %d to output %d, but the VC has no request left this cycle", r.id, ivc, out))
		}
		if want := int(outPort[ivc]); out != want {
			panic(fmt.Sprintf("router %d: a grant sends input VC %d to output %d, but the VC requests output %d", r.id, ivc, out, want))
		}
		if granted[out>>6]>>uint(out&63)&1 != 0 {
			panic(fmt.Sprintf("router %d: a grant sends input VC %d to output %d, which is already granted", r.id, ivc, out))
		}
		// A crossbar row carries one flit a cycle.
		if row := int(a.ivcRow[ivc]); rows[row>>6]>>uint(row&63)&1 != 0 {
			r.refuseRow(grants[:gi], ivc, out, row)
		} else {
			rows[row>>6] |= 1 << uint(row&63)
		}
		bit := uint64(1) << uint(ivc&63)
		ready[ivc>>6] &^= bit
		granted[out>>6] |= 1 << uint(out&63)
		port := int(a.ivcPort[ivc])
		wait[ivc] = 0
		h := int(head[ivc])
		s := bufs[ivc*depth+h]
		h++
		if h == depth {
			h = 0
		}
		head[ivc] = int8(h)
		count[ivc]--
		r.occ--
		if count[ivc] == 0 {
			masks[ivc>>6] &^= bit // nonEmpty
		}
		ovc := ovcs[ivc]
		if ports[out] == topology.Link {
			cvi := out*vcs + int(ovc)
			cred[cvi]--
			if cred[cvi] < 0 {
				panic(fmt.Sprintf("router %d: credit underflow at port %d vc %d", r.id, out, ovc))
			}
			s.Hops++
			// A granted VC had credit, so its noCredit bit is clear; a
			// tail takes the VC with it, so only a holder that stays can
			// run out.
			if s.Type.IsTail() {
				masks[5*w+out] &^= 1 << uint(ovc) // busy
				r.wakeVA(sg, out)
			} else if cred[cvi] == 0 {
				masks[3*w+ivc>>6] |= bit // noCredit
			}
		}
		if s.Type.IsTail() {
			ovcs[ivc] = -1
			masks[w+ivc>>6] &^= bit // hasOVC
		}
		ems = append(ems, Emission{OutPort: out, Slot: s, VC: ovc})
		if ports[port] == topology.Link {
			credits = append(credits, CreditMsg{Port: port, VC: ivc - port*vcs})
		}
	}
	return ems, credits, r.occ == 0
}

// refuseRow panics on a grant of input VC ivc to output out from crossbar
// row, which one of the earlier grants of the cycle already took.
func (r *Router) refuseRow(earlier []alloc.Grant, ivc, out, row int) {
	for _, e := range earlier {
		if int(r.arena.ivcRow[e.IVC]) == row {
			panic(fmt.Sprintf("router %d: a grant sends input VC %d to output %d, but input VC %d, granted this cycle, shares its crossbar row %d",
				r.id, ivc, out, e.IVC, row))
		}
	}
}

// SkipIdle fast-forwards the router across cycles consecutive ticks
// during which it held no buffered flits. An idle Tick emits nothing and
// frees no credits; its only persistent effects are the VC-allocation
// priority rotation and whatever the allocator does with an empty request
// set — which built-in allocators compress to O(1) via alloc.IdleSkipper. A
// custom allocator without SkipIdle gets the literal empty Allocate
// calls, so gated and dense runs stay byte-identical for any allocator.
//
// The caller asserts the router was empty for the skipped span; current
// buffer contents are irrelevant (the activity-gated tick calls SkipIdle
// at reactivation, after the cycle's deliveries have already landed) —
// an idle tick's effects touch nothing the buffers feed.
func (r *Router) SkipIdle(cycles int) {
	r.vaOffset += cycles
	if r.idle != nil {
		r.idle.SkipIdle(cycles)
		return
	}
	reqs := &r.arena.sets[r.slot]
	clear(reqs.Ready)
	reqs.Requests = reqs.Requests[:0]
	for i := 0; i < cycles; i++ {
		r.alloc.Allocate(reqs)
	}
}

// allocateVCs performs the VC allocation stage: head flits at the front
// of their buffers acquire an output VC at the downstream router. Only
// the input VCs awaiting one — nonEmpty, not hasOVC and not vaWait — are
// visited, in a rotating order for long-run fairness: ascending from the
// priority offset to the top, then from zero up to the offset.
func (r *Router) allocateVCs(sg seg) {
	masks, w := r.arena.masks[sg.m:sg.m+r.arena.maskStride], sg.w // nonEmpty, hasOVC, vaWait, …
	var pending uint64
	for wi := range w {
		pending |= masks[wi] &^ masks[w+wi] &^ masks[2*w+wi]
	}
	if pending != 0 {
		total := r.arena.pv
		start := r.vaOffset % total
		r.allocateVCRange(sg, masks, start, total)
		r.allocateVCRange(sg, masks, 0, start)
	}
	r.vaOffset++
}

// allocateVCRange runs VC allocation for the pending input VCs in
// [lo, hi), ascending. Allocating one input VC changes no other's
// pending bit, so each word is read once.
func (r *Router) allocateVCRange(sg seg, masks []uint64, lo, hi int) {
	w := sg.w
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		word := masks[wi] &^ masks[w+wi] &^ masks[2*w+wi]
		if wi == lo>>6 {
			word = word >> uint(lo&63) << uint(lo&63)
		}
		if top := hi - wi<<6; top < 64 {
			word &= 1<<uint(top) - 1
		}
		for ; word != 0; word &= word - 1 {
			r.allocateVC(sg, masks, wi<<6+bits.TrailingZeros64(word))
		}
	}
}

// allocateVC tries to acquire an output VC for the head flit fronting
// input VC ivc. On failure every VC the head may take at its output is
// busy, and only a tail freeing one can change that, so the head parks
// in vaWait with its output recorded until wakeVA returns it. masks is
// the router's mask segment.
func (r *Router) allocateVC(sg seg, masks []uint64, ivc int) {
	a, w := r.arena, sg.w
	i := sg.at + ivc
	front := &a.bufs[i*a.cfg.BufDepth+int(a.head[i])]
	if !front.Type.IsHead() {
		// A body flit without a valid output VC cannot occur: the VC
		// is held from head grant to tail departure.
		panic(fmt.Sprintf("router %d: body flit at front of unallocated VC", r.id))
	}
	out := int(front.Route)
	bit := uint64(1) << uint(ivc&63)
	vc := 0
	if a.ports[sg.ports+out] != topology.Local {
		if vc = r.chooseOVC(sg, out, int(front.DstSeq)); vc < 0 {
			a.outPort[i] = int8(out)
			masks[2*w+ivc>>6] |= bit // vaWait
			return
		}
		masks[5*w+out] |= 1 << uint(vc) // busy
		if a.credits[sg.at+out*a.cfg.VCs+vc] == 0 {
			masks[3*w+ivc>>6] |= bit // noCredit
		}
	}
	// Ejection needs no downstream VC (vc stays 0): the sink absorbs at
	// link bandwidth, serialised per output port by switch allocation.
	a.ovc[i], a.outPort[i] = int8(vc), int8(out)
	masks[w+ivc>>6] |= bit // hasOVC
}

// wakeVA returns every head waiting on output out to VC allocation: a
// tail has just freed one of out's VCs. The freed VC may lie outside a
// woken head's admitted range (a torus dateline class); that head fails
// its next try and parks again, exactly as its retry would have, so no
// choice changes. Clearing a busy bit happens nowhere else.
func (r *Router) wakeVA(sg seg, out int) {
	a := r.arena
	vaWait := a.masks[sg.vaWait() : sg.vaWait()+sg.w]
	outPort := a.outPort[sg.at : sg.at+a.pv]
	for wi, w := range vaWait {
		for ; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			if int(outPort[wi<<6+b]) == out {
				vaWait[wi] &^= 1 << uint(b)
			}
		}
	}
}

// chooseOVC applies the configured Section 2.3 policy to output port out.
func (r *Router) chooseOVC(sg seg, out, dst int) int {
	a := r.arena
	vcs := a.cfg.VCs
	lo, hi := 0, vcs
	if r.vcRange != nil {
		lo, hi = r.vcRange(out, dst)
	}
	busy := a.masks[sg.busy()+out]
	free := ^busy & vcSpan(lo, hi)
	if free == 0 {
		return -1
	}
	at := sg.at + out*vcs
	ctx := vaContext{
		free:      free,
		busy:      busy,
		credits:   a.credits[at : at+vcs],
		groupMask: a.groupMask,
		nextDim:   r.nextDim(out, dst),
	}
	return r.policy.choose(&ctx)
}

// InjectionVC picks the VC of local input port a new packet starts in,
// given dim, the dimension of its first hop: PolicyDimension, whatever
// the configured Policy, over the VCs with buffer space, space in the role
// of credits. It returns -1 if no VC has space. Any VC with space will do:
// the network interface streams packets in order, so a packet behind the
// previous tail in the same VC keeps wormhole FIFO order.
func (r *Router) InjectionVC(port int, dim topology.Dim) int {
	var space [alloc.MaxVCs]int8
	var free uint64
	a := r.arena
	vcs, depth := a.cfg.VCs, int8(a.cfg.BufDepth)
	at := a.seg(int(r.slot)).at + port*vcs
	for vc, c := range a.count[at : at+vcs] {
		if s := depth - c; s > 0 {
			space[vc] = s
			free |= 1 << uint(vc)
		}
	}
	if free == 0 {
		return -1
	}
	ctx := vaContext{free: free, credits: space[:vcs], groupMask: a.groupMask, nextDim: dim}
	return policyDimension.choose(&ctx)
}

// takeRequests takes this cycle's switch-allocation request set into
// ready: every input VC whose front flit has an output VC with a
// downstream credit (hasOVC and not noCredit) requests its packet's
// output port. The ready words are the set's packed form; outPort and
// wait already are.
func (r *Router) takeRequests(sg seg, ready []uint64) {
	masks := r.arena.masks
	for wi := range ready {
		ready[wi] = masks[sg.nonEmpty()+wi] & masks[sg.hasOVC()+wi] &^ masks[sg.noCredit()+wi]
	}
}

// listRequests fills the request list from the ready words, in ascending
// (port, VC) order, for an allocator that is not a built-in kind.
func (r *Router) listRequests(reqs *alloc.RequestSet) {
	reqs.Requests = reqs.Requests[:0]
	for wi, w := range reqs.Ready {
		for ; w != 0; w &= w - 1 {
			ivc := wi<<6 + bits.TrailingZeros64(w)
			port := int(r.arena.ivcPort[ivc])
			reqs.Requests = append(reqs.Requests, alloc.Request{
				Port: port, VC: ivc - port*r.arena.cfg.VCs, OutPort: int(reqs.Out[ivc]), Age: int(reqs.Age[ivc]),
			})
		}
	}
}
