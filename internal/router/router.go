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
// are int8 slab fields bounded by BufDepth; output ports are int8 slab
// fields bounded by Ports; a Slot keeps a FlitID in 30 bits.
const (
	MaxBufDepth = math.MaxInt8
	MaxPorts    = alloc.MaxPorts
	MaxFlitID   = 1<<slotTypeShift - 1
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

// Slot is a flit as a VC buffer holds it and a link carries it, 4 bytes:
// the low 30 bits are its FlitID (at most MaxFlitID), the top 2 its
// Type. Only a head is routed and VC-allocated (wormhole switching), and
// VC allocation asks the Records for a head's hop, so nothing else of a
// flit travels; body and tail flits follow the output and output VC
// their head took.
type Slot uint32

// slotTypeShift places a Slot's type above its 30-bit FlitID.
const slotTypeShift = 30

// NewSlot packs flit id, in 0..MaxFlitID, and its type. It does not check
// the bound: the network's Validate holds it, and DeliverFlit checks it.
func NewSlot(id FlitID, t FlitType) Slot { return Slot(uint32(t)<<slotTypeShift | uint32(id)) }

// Flit returns the id of the flit's record.
func (s Slot) Flit() FlitID { return FlitID(s & MaxFlitID) }

// Type returns the flit's position in its packet.
func (s Slot) Type() FlitType { return FlitType(s >> slotTypeShift) }

// Emission is a flit leaving through an output port this cycle; the
// network layer schedules its arrival in VC of the downstream input port
// (or its ejection) after switch and link traversal. 16 bytes.
type Emission struct {
	OutPort int
	Flit    FlitID
	Type    FlitType
	VC      int8 // granted output VC (0 for ejection)
}

// Slot returns the emitted flit as the next buffer holds it.
func (e *Emission) Slot() Slot { return NewSlot(e.Flit, e.Type) }

// CreditMsg is a credit freed by a flit departing input (Port, VC),
// to be returned to the upstream router. Both fit an int8: Port is
// below MaxPorts, VC below alloc.MaxVCs.
type CreditMsg struct {
	Port, VC int8
}

// NextDimFunc returns the dimension class of the output port a packet
// destined to dst will request at the downstream router reached through
// outPort (lookahead information for the Section 2.3 policies). Only a
// standalone router reads one, through its records.
type NextDimFunc func(outPort, dst int) topology.Dim

// VCRangeFunc returns the downstream-VC index range [lo, hi) a packet
// destined to dst may be assigned when leaving through outPort, its
// routed port: a standalone router's stand-in for a topology-level VC
// restriction (Hop.Lo, Hop.Hi). A nil func admits every VC.
type VCRangeFunc func(outPort, dst int) (lo, hi int)

// standalone is a standalone router's Records: its flit records, whose
// Route the caller sets for this router, and the route funcs New was
// given for the rest of a head's hop.
type standalone struct {
	*FlitArena
	nextDim NextDimFunc
	vcRange VCRangeFunc
	vcs     int
}

// Head implements Records.
func (s *standalone) Head(id FlitID, _ int) Hop {
	f := s.At(id)
	h := Hop{Route: f.Route, Hi: s.vcs, Next: s.nextDim(f.Route, f.Dst)}
	if s.vcRange != nil {
		h.Lo, h.Hi = s.vcRange(f.Route, f.Dst)
	}
	return h
}

// Arena holds the state of every router in one network as contiguous
// structure-of-arrays slabs. Each router owns one exact-size segment of
// each slab, named by its slot, so a full network tick walks linear memory
// in router order; the Router struct keeps only its slot and its scalars.
//
// Layout per router segment, indexed by ivc = port*VCs + vc:
//
//	bufs    [ivc*BufDepth : ...]  VC buffer ring storage (Slots): a
//	                              flit's id and type; VC allocation asks
//	                              the Records for a head's hop
//	head    [ivc]                 ring head slot
//	count   [ivc]                 buffered flits in the ring
//	ovc     [ivc]                 allocated downstream VC (-1 = none)
//	outPort [ivc]                 route of the current packet
//	wait    [ivc]                 cycles the front flit has waited, kept
//	                              only where the kind reads ages
//	                              (alloc.ReadsAge): nil otherwise
//	credits [out*VCs + v]         downstream credits per output VC
//
// (head, count and credits are bounded by BufDepth, ovc by VCs and outPort
// by Ports, so they are int8 slabs — Config.Validate holds the bounds —
// and only wait, a cycle count, is int32), one count per router,
//
//	occ     [slot]                buffered flits, all input VCs
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
//
// and, per port, the port's wiring kind (ports).
//
// What a tick makes and hands on within the cycle is kept once per lane,
// not per router: a lane is a goroutine that ticks routers one after
// another (the serial tick has one, the sharded tick one per worker), and
// Advance names its lane. Per lane, the arena keeps a switch-allocation
// request set (sets), the emission (ems) and freed-credit (creds)
// scratch, at most one of each per port a cycle, and the grant loop's
// mask of the crossbar rows granted this cycle (rows, R = ceil(Rows/64)
// words). Advance points its lane's set at the router's segments — ready
// as its Ready words, outPort as Out and wait as Age (nil without the
// wait slab), the packed form — and returns its lane's ems and creds,
// valid until the lane's next Advance. A grant names its input VC by ivc.
//
// vaWait and noCredit drop input VCs from the stage that cannot serve
// them until the one event that can end the block: a tail freeing a VC
// at that output, or a credit returning to the held VC.
//
// The ivc -> port, ivc -> crossbar row and sub-group -> VC-mask tables
// depend only on the geometry, so the arena holds one copy for all its
// routers.
//
// The hot path indexes the slabs themselves, a.count[sg.at+ivc], and
// builds no per-router slice view: Go keeps no register across a call,
// so a live view is spilled and reloaded around every one.
type Arena struct {
	records Records
	cfg     Config // the geometry: Ports, VCs, VirtualInputs, BufDepth, Partition
	n       int
	pv      int // input VCs per router: Ports*VCs

	maskWords  int // W: words per ivc mask
	maskStride int // mask words per router: 5W + Ports
	rowWords   int // R: words per crossbar-row mask

	bufs    []Slot
	head    []int8
	count   []int8
	ovc     []int8
	outPort []int8
	credits []int8
	wait    []int32 // nil unless the kind reads ages
	occ     []int32 // per router: buffered flits
	masks   []uint64
	ports   []topology.PortKind
	sets    []alloc.RequestSet // per lane
	ems     []Emission         // per lane, Ports each
	creds   []CreditMsg        // per lane, Ports each
	rows    []uint64           // per lane, R each

	ivcPort   []int32  // per ivc: port
	ivcRow    []int32  // per ivc: crossbar row, alloc.Config.Row
	groupMask []uint64 // per sub-group: the VCs alloc.Config.Subgroup maps to it
}

// NewArena builds the shared state slabs for numRouters routers of
// identical cfg geometry, ticked by at most lanes goroutines at once,
// whose VC allocation and Occupancy checks resolve flits through records.
// It keeps request ages only where cfg.AllocKind reads them
// (alloc.ReadsAge).
func NewArena(numRouters, lanes int, cfg Config, records Records) *Arena {
	if err := cfg.Validate(); err != nil {
		panic("router: invalid config: " + strings.TrimPrefix(err.Error(), "router: "))
	}
	if numRouters <= 0 || lanes <= 0 {
		panic(fmt.Sprintf("router: arena for %d routers in %d lanes", numRouters, lanes))
	}
	pv := cfg.Ports * cfg.VCs
	a := &Arena{
		records:   records,
		cfg:       Config{Ports: cfg.Ports, VCs: cfg.VCs, VirtualInputs: cfg.VirtualInputs, BufDepth: cfg.BufDepth, Partition: cfg.Partition},
		n:         numRouters,
		pv:        pv,
		maskWords: (pv + 63) / 64,
	}
	a.maskStride = 5*a.maskWords + cfg.Ports
	a.rowWords = (cfg.Alloc().Rows() + 63) / 64
	a.bufs = make([]Slot, numRouters*pv*cfg.BufDepth)
	a.head = make([]int8, numRouters*pv)
	a.count = make([]int8, numRouters*pv)
	a.ovc = make([]int8, numRouters*pv)
	a.outPort = make([]int8, numRouters*pv)
	a.credits = make([]int8, numRouters*pv)
	if alloc.ReadsAge(cfg.AllocKind) {
		a.wait = make([]int32, numRouters*pv)
	}
	a.occ = make([]int32, numRouters)
	a.masks = make([]uint64, numRouters*a.maskStride)
	a.ports = make([]topology.PortKind, numRouters*cfg.Ports)
	a.sets = make([]alloc.RequestSet, lanes)
	for l := range a.sets {
		a.sets[l] = alloc.RequestSet{Config: cfg.Alloc(), Lane: l}
	}
	a.ems = make([]Emission, lanes*cfg.Ports)
	a.creds = make([]CreditMsg, lanes*cfg.Ports)
	a.rows = make([]uint64, lanes*a.rowWords)
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

// seg locates one router's segments in its arena, as offsets into the
// shared slabs, so that taking it on entry to a method costs a few
// multiplies and no slice headers: at is the router's first entry in the
// per-ivc slabs (a bufs ring starts at (at+ivc)*BufDepth), ports its first
// in the port-kind slab, and m the first word of its masks,
// w words each (see Arena). Its ready words, outPort and wait (if kept)
// are what Advance points its lane's request set's Ready, Out and Age
// at. A seg is passed by value: it stays in registers.
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
	id   int32
	slot int32

	policy policy // Config.Policy, resolved once
	// nonSpec is Config.NonSpeculative. list is set when alloc is not a
	// built-in kind: it may read the request list, so Advance fills
	// reqs.Requests as well.
	nonSpec, list bool

	ticks int64 // Tick calls so far: a standalone router's cycle

	arena *Arena
	alloc alloc.Allocator
}

// New builds a router. ports describes the wiring class of each port
// (symmetric in/out). The allocator must match cfg.Alloc() geometry.
// arena is the shared per-network state arena, whose records give every
// head's hop; the router occupies slot id, and nextDim and vcRange must
// be nil. A nil arena gives the router a private single-slot,
// single-lane arena with its own FlitArena (standalone/test use), whose
// heads' lookahead nextDim gives and whose admitted VCs vcRange
// restricts per (outPort, dst) (nil: no restriction). An allocator
// that is not a built-in kind may read request ages, so its
// cfg.AllocKind must be one the arena keeps them for (alloc.ReadsAge).
func New(id int, cfg Config, ports []PortInfo, allocator alloc.Allocator, nextDim NextDimFunc, vcRange VCRangeFunc, arena *Arena) *Router {
	if err := cfg.Validate(); err != nil {
		panic("router: invalid config: " + strings.TrimPrefix(err.Error(), "router: "))
	}
	if len(ports) != cfg.Ports {
		panic(fmt.Sprintf("router: %d port infos for %d ports", len(ports), cfg.Ports))
	}
	slot := id
	list := !alloc.IsBuiltin(allocator)
	switch {
	case arena == nil && nextDim == nil:
		panic(fmt.Sprintf("router %d: a standalone router needs a NextDimFunc", id))
	case arena == nil:
		arena = NewArena(1, 1, cfg, &standalone{FlitArena: NewFlitArena(), nextDim: nextDim, vcRange: vcRange, vcs: cfg.VCs})
		slot = 0
	case nextDim != nil || vcRange != nil:
		panic(fmt.Sprintf("router %d: route funcs on a shared arena, whose records give every hop", id))
	}
	if list && arena.wait == nil {
		panic(fmt.Sprintf("router %d: allocator %q may read request ages, which the arena does not keep", id, allocator.Name()))
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
		list:    list,
		arena:   arena,
		alloc:   allocator,
	}
	sg := arena.seg(slot)
	for p, info := range ports {
		arena.ports[sg.ports+p] = info.Kind
	}
	return r
}

// Flits returns a standalone router's flit arena, and nil for a router
// whose flit records its network keeps.
func (r *Router) Flits() *FlitArena {
	if s, ok := r.arena.records.(*standalone); ok {
		return s.FlitArena
	}
	return nil
}

// DeliverFlit places the flit named id into input (port, vc): the
// standalone form of Deliver. The caller must have set the flit's Route
// for this router, which VC allocation reads back if the flit is a head.
// It refuses a record a slot cannot name or VC allocation could not use:
// an id past MaxFlitID, a route off the router, a negative destination,
// or a Type that is not its Seq's in a packet of PacketSize flits.
func (r *Router) DeliverFlit(port, vc int, id FlitID) {
	f := r.Flits().At(id)
	if id > MaxFlitID || f.Route < 0 || f.Route >= r.arena.cfg.Ports || f.Dst < 0 ||
		f.Seq < 0 || f.Seq >= f.PacketSize || f.Type != PacketFlitType(f.Seq, f.PacketSize) {
		panic(fmt.Sprintf("router %d: flit %d with route %d, dst %d, or type %v as flit %d of %d cannot be buffered",
			r.id, id, f.Route, f.Dst, f.Type, f.Seq, f.PacketSize))
	}
	f.VC = vc
	r.Deliver(port, vc, NewSlot(id, f.Type))
}

// Deliver places an arriving flit into input (port, vc). It panics on
// buffer overflow, which would indicate a flow-control bug.
func (r *Router) Deliver(port, vc int, s Slot) { r.arena.Deliver(int(r.slot), port, vc, s) }

// DeliverCredit returns one credit for downstream VC vc of outPort.
func (r *Router) DeliverCredit(outPort, vc int) { r.arena.DeliverCredit(int(r.slot), outPort, vc) }

// Deliver places an arriving flit into input (port, vc) of the router in
// slot — a network router's slot is its index — without reading the
// Router: the network's delivery loop reaches the slabs straight from the
// slot. It panics on buffer overflow, which would indicate a flow-control
// bug.
func (a *Arena) Deliver(slot, port, vc int, s Slot) {
	depth := a.cfg.BufDepth
	ivc := port*a.cfg.VCs + vc
	i := slot*a.pv + ivc
	c := a.count[i]
	if int(c) >= depth {
		panic(fmt.Sprintf("router %d: buffer overflow at port %d vc %d", slot, port, vc))
	}
	if c == 0 {
		a.masks[slot*a.maskStride+ivc>>6] |= 1 << uint(ivc&63) // nonEmpty
	}
	at := int(a.head[i]) + int(c)
	if at >= depth {
		at -= depth
	}
	a.bufs[i*depth+at] = s
	a.count[i] = c + 1
	a.occ[slot]++
}

// DeliverCredit returns one credit for downstream VC vc of outPort to the
// router in slot. Only a first credit (0 -> 1) can unblock a holder, so
// the common case is an increment and the rest is out of line.
func (a *Arena) DeliverCredit(slot, outPort, vc int) {
	i := slot*a.pv + outPort*a.cfg.VCs + vc
	c := a.credits[i]
	if c == 0 || int(c) >= a.cfg.BufDepth {
		a.creditEdge(slot, outPort, vc)
	}
	a.credits[i] = c + 1
}

// creditEdge panics on a credit overflow, and on a first credit returns
// the holder of downstream VC vc of outPort, if it has one, to the
// switch-allocation request set.
func (a *Arena) creditEdge(slot, outPort, vc int) {
	sg := a.seg(slot)
	if int(a.credits[sg.at+outPort*a.cfg.VCs+vc]) >= a.cfg.BufDepth {
		panic(fmt.Sprintf("router %d: credit overflow at port %d vc %d", slot, outPort, vc))
	}
	for wi := range sg.w {
		for w := a.masks[sg.noCredit()+wi]; w != 0; w &= w - 1 {
			ivc := wi<<6 + bits.TrailingZeros64(w)
			if int(a.outPort[sg.at+ivc]) == outPort && int(a.ovc[sg.at+ivc]) == vc {
				a.masks[sg.noCredit()+wi] &^= 1 << uint(ivc&63)
				return
			}
		}
	}
}

// Busy reports whether the router in slot holds any buffered flits. An
// idle router's tick changes nothing — no emissions, no credits, no
// requests to the allocator, whose rotating state is a function of the
// cycle — so the network's activity gate only needs to wake a router on
// a credit when Busy is true: credits are applied eagerly above, and a
// credit at an empty router cannot create work until a flit arrives
// (which sets the bit).
// The count is a slab of its own, maintained incrementally (deliveries
// add, grant departures subtract), so the test is one load from a line
// every router shares.
func (a *Arena) Busy(slot int) bool { return a.occ[slot] > 0 }

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
// every vaWait head is pending and faces only busy VCs at the route its
// record gives, and every ring reads as whole packets in order
// (checkRing); tests call it to cross-check the incremental state
// against what it summarises.
func (r *Router) Occupancy() int {
	a, sg := r.arena, r.arena.seg(int(r.slot))
	vcs, depth := a.cfg.VCs, a.cfg.BufDepth
	n := 0
	for ivc, c := range a.count[sg.at : sg.at+a.pv] {
		n += int(c)
		i := sg.at + ivc
		ring := a.bufs[i*depth : (i+1)*depth]
		h := int(a.head[i])
		ovc := a.ovc[i]
		r.checkRing(ivc, ring, h, int(c), ovc >= 0)
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
			hop := a.records.Head(ring[h].Flit(), int(r.id))
			if out != hop.Route || vcSpan(hop.Lo, hop.Hi)&^a.masks[sg.busy()+out] != 0 {
				panic(fmt.Sprintf("router %d: vaWait set at ivc %d for port %d, but its head's route is %d or an admitted VC there is free", r.id, ivc, out, hop.Route))
			}
		}
	}
	if occ := a.occ[r.slot]; n != int(occ) {
		panic(fmt.Sprintf("router %d: occupancy counter %d but %d flits buffered", r.id, occ, n))
	}
	return n
}

// checkRing panics unless the c flits of ivc's ring from slot h on read
// as packets in order: every entry names a live record; the front is a
// head unless the VC holds an output VC (its packet's head has left);
// after a head or body flit comes the same packet's body or tail flit,
// and after a tail a head.
func (r *Router) checkRing(ivc int, ring []Slot, h, c int, held bool) {
	var prev uint64
	open := held // the entry before the front left without its tail
	for k := range c {
		s := ring[(h+k)%len(ring)]
		packet, live := r.arena.records.Packet(s.Flit())
		switch typ := s.Type(); {
		case !live:
			panic(fmt.Sprintf("router %d: flit %d of ivc %d names no live record (id %d)", r.id, k, ivc, s.Flit()))
		case typ.IsHead() && open && k > 0:
			panic(fmt.Sprintf("router %d: flit %d of ivc %d is a %v of packet %d after packet %d's non-tail", r.id, k, ivc, typ, packet, prev))
		case !typ.IsHead() && !open:
			panic(fmt.Sprintf("router %d: flit %d of ivc %d is a %v of packet %d, but no packet is open there", r.id, k, ivc, typ, packet))
		case !typ.IsHead() && k > 0 && packet != prev:
			panic(fmt.Sprintf("router %d: flit %d of ivc %d is a %v of packet %d after packet %d's non-tail", r.id, k, ivc, typ, packet, prev))
		default:
			prev, open = packet, !typ.IsTail()
		}
	}
}

// Credits exposes the credit count for (outPort, vc); used by tests.
func (r *Router) Credits(outPort, vc int) int {
	a := r.arena
	return int(a.credits[a.seg(int(r.slot)).at+outPort*a.cfg.VCs+vc])
}

// Tick is Advance in lane 0 for a standalone router whose caller reads
// the flit records, at a cycle counting its own calls from 0: it also
// writes each emitted flit's granted output VC into its record, and
// counts a hop there for each flit leaving through a link, and reports
// whether the router quiesced (no flits buffered). The network calls
// Advance, carries the VC on the link event and knows a packet's hops
// from its route.
func (r *Router) Tick() (ems []Emission, credits []CreditMsg, quiesced bool) {
	ems, credits = r.Advance(0, r.ticks)
	r.ticks++
	flits := r.Flits()
	ports := r.arena.ports[r.arena.seg(int(r.slot)).ports:]
	for i := range ems {
		f := flits.At(ems[i].Flit)
		f.VC = int(ems[i].VC)
		if ports[ems[i].OutPort] == topology.Link {
			f.Hops++
		}
	}
	return ems, credits, !r.arena.Busy(int(r.slot))
}

// Advance moves the router on at cycle: VC allocation, then switch
// allocation, then switch traversal of the winners. Under NonSpeculative
// the switch request set is taken before VC allocation, which writes only
// heads holding no output VC — none of them in the set — so the stage
// order alone holds a new head out until the next cycle. It returns the
// flits leaving through output ports and the credits freed at input
// ports. Whether the router quiesced is the arena's Busy: with no flits
// buffered, until the next delivery every further cycle would change
// nothing, so the activity-gated network tick clears a quiescent
// router's activity bit and stops advancing it. Cycles need not be
// consecutive: what rotates per cycle, the VA priority and the
// allocator's, is a function of cycle.
//
// It writes only this router's arena segments and lane's scratch, and of
// the flit records reads a head's hop (Records.Head) at VC allocation.
// Routers may advance at once in different lanes, below the arena's lane
// count. Both returned slices are the lane's scratch, valid only until
// the lane's next Advance call; callers must consume (or copy) them
// before it.
func (r *Router) Advance(lane int, cycle int64) (ems []Emission, credits []CreditMsg) {
	a := r.arena
	slot := int(r.slot)
	sg := a.seg(slot)
	// Most cycles no head awaits a VC, so the test is here and the walk
	// out of line.
	pending := a.pending(sg)
	if pending && !r.nonSpec {
		r.allocateVCs(sg, cycle)
	}
	a.takeRequests(sg)
	if pending && r.nonSpec {
		r.allocateVCs(sg, cycle)
	}
	reqs := a.requests(sg, lane, cycle)
	if r.list {
		r.listRequests(reqs)
	}
	grants := r.alloc.Allocate(reqs)
	if a.wait != nil {
		a.age(sg, grants)
	}
	at := lane * a.cfg.Ports
	ems = a.ems[at : at : at+a.cfg.Ports]
	credits = a.creds[at : at : at+a.cfg.Ports]
	if len(grants) == 0 {
		return ems, credits
	}
	// A grant the router cannot carry out panics. Lowering a granted VC's
	// request refuses a second grant to it. The loop indexes the slabs
	// from the arena and the segment offsets, so few values stay live
	// across it.
	rows := lane * a.rowWords
	for i := rows; i < rows+a.rowWords; i++ {
		a.rows[i] = 0
	}
	var granted [2]uint64 // outputs granted so far: MaxPorts < 128
	for gi, g := range grants {
		ivc, out := g.IVC, g.OutPort
		if uint(ivc) >= uint(a.pv) || !a.has(sg.ready(), ivc) || int(a.outPort[sg.at+ivc]) != out ||
			granted[out>>6]>>uint(out&63)&1 != 0 {
			r.refuseGrant(sg, ivc, out)
		}
		i := sg.at + ivc
		// A crossbar row carries one flit a cycle.
		row := int(a.ivcRow[ivc])
		if a.rows[rows+row>>6]>>uint(row&63)&1 != 0 {
			r.refuseRow(grants[:gi], ivc, out, row)
		}
		a.rows[rows+row>>6] |= 1 << uint(row&63)
		bit := uint64(1) << uint(ivc&63)
		a.masks[sg.ready()+ivc>>6] &^= bit
		granted[out>>6] |= 1 << uint(out&63)
		depth := a.cfg.BufDepth
		h := int(a.head[i])
		s := a.bufs[i*depth+h]
		if h++; h == depth {
			h = 0
		}
		a.head[i] = int8(h)
		c := a.count[i] - 1
		a.count[i] = c
		if c == 0 {
			a.masks[sg.nonEmpty()+ivc>>6] &^= bit
		}
		ovc := a.ovc[i]
		if a.ports[sg.ports+out] == topology.Link {
			cvi := sg.at + out*a.cfg.VCs + int(ovc)
			cr := a.credits[cvi] - 1
			if cr < 0 {
				r.creditUnderflow(out, int(ovc))
			}
			a.credits[cvi] = cr
			// A granted VC had credit, so its noCredit bit is clear; a
			// tail takes the VC with it, so only a holder that stays can
			// run out.
			if s.Type().IsTail() {
				a.masks[sg.busy()+out] &^= 1 << uint(ovc)
				a.wakeVA(sg, out)
			} else if cr == 0 {
				a.masks[sg.noCredit()+ivc>>6] |= bit
			}
		}
		if s.Type().IsTail() {
			a.ovc[i] = -1
			a.masks[sg.hasOVC()+ivc>>6] &^= bit
		}
		ems = append(ems, Emission{OutPort: out, Flit: s.Flit(), Type: s.Type(), VC: ovc})
		if port := int(a.ivcPort[ivc]); a.ports[sg.ports+port] == topology.Link {
			credits = append(credits, CreditMsg{Port: int8(port), VC: int8(ivc - port*a.cfg.VCs)})
		}
	}
	a.occ[slot] -= int32(len(grants))
	return ems, credits
}

// requests points lane's request set at the router's ready words, outPort
// segment and, where the arena keeps ages, wait segment, stamps it with
// cycle, and returns it.
func (a *Arena) requests(sg seg, lane int, cycle int64) *alloc.RequestSet {
	reqs := &a.sets[lane]
	reqs.Cycle = cycle
	reqs.Ready = a.masks[sg.ready() : sg.ready()+sg.w : sg.ready()+sg.w]
	reqs.Out = a.outPort[sg.at : sg.at+a.pv : sg.at+a.pv]
	if a.wait != nil {
		reqs.Age = a.wait[sg.at : sg.at+a.pv : sg.at+a.pv]
	}
	return reqs
}

// age counts a cycle of waiting on every request of the cycle and
// restarts the wait of each granted one. Only arenas that keep ages run
// it; a grant the router refuses panics after it, in Advance.
func (a *Arena) age(sg seg, grants []alloc.Grant) {
	for wi := range sg.w {
		for w := a.masks[sg.ready()+wi]; w != 0; w &= w - 1 {
			a.wait[sg.at+wi<<6+bits.TrailingZeros64(w)]++
		}
	}
	for _, g := range grants {
		if uint(g.IVC) < uint(a.pv) {
			a.wait[sg.at+g.IVC] = 0
		}
	}
}

// refuseGrant panics on a grant of input VC ivc to output out that
// names a VC with no request left this cycle, or another output than the
// VC requests, or else (Advance's last check) an output already granted.
// The panics are out of line so that Advance formats none of them.
func (r *Router) refuseGrant(sg seg, ivc, out int) {
	a := r.arena
	switch {
	case uint(ivc) >= uint(a.pv) || !a.has(sg.ready(), ivc):
		panic(fmt.Sprintf("router %d: a grant sends input VC %d to output %d, but the VC has no request left this cycle", r.id, ivc, out))
	case int(a.outPort[sg.at+ivc]) != out:
		panic(fmt.Sprintf("router %d: a grant sends input VC %d to output %d, but the VC requests output %d", r.id, ivc, out, a.outPort[sg.at+ivc]))
	default:
		panic(fmt.Sprintf("router %d: a grant sends input VC %d to output %d, which is already granted", r.id, ivc, out))
	}
}

// creditUnderflow panics on a flit sent to downstream VC vc of out
// without a credit. It stays out of line, like refuseGrant.
//
//go:noinline
func (r *Router) creditUnderflow(out, vc int) {
	panic(fmt.Sprintf("router %d: credit underflow at port %d vc %d", r.id, out, vc))
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

// allocateVCs performs the VC allocation stage: head flits at the front
// of their buffers acquire an output VC at the downstream router. Only
// the input VCs awaiting one — nonEmpty, not hasOVC and not vaWait, the
// pending set — are visited, in a rotating order for long-run fairness:
// ascending from start = cycle mod Ports·VCs to the top, then from zero
// up to it. Advance calls it only when the pending set is not empty.
func (r *Router) allocateVCs(sg seg, cycle int64) {
	a := r.arena
	start := int(uint64(cycle) % uint64(a.pv))
	// Allocating one input VC changes no other's pending bit, so each
	// word of each span, [start, Ports·VCs) then [0, start), is read once.
	for _, span := range [2][2]int{{start, a.pv}, {0, start}} {
		lo, hi := span[0], span[1]
		for wi := lo >> 6; wi<<6 < hi; wi++ {
			word := a.masks[sg.nonEmpty()+wi] &^ a.masks[sg.hasOVC()+wi] &^ a.masks[sg.vaWait()+wi]
			if wi == lo>>6 {
				word = word >> uint(lo&63) << uint(lo&63)
			}
			if top := hi - wi<<6; top < 64 {
				word &= 1<<uint(top) - 1
			}
			for ; word != 0; word &= word - 1 {
				r.allocateVC(sg, wi<<6+bits.TrailingZeros64(word))
			}
		}
	}
}

// allocateVC tries to acquire an output VC for the head flit fronting
// input VC ivc, at the hop its record gives: a hop is a function of
// router and destination, so asking here gives what a lookahead stage
// would have. On failure every VC the head may take at its output is
// busy, and only a tail freeing one can change that, so the head parks
// in vaWait with its output recorded until wakeVA returns it.
func (r *Router) allocateVC(sg seg, ivc int) {
	a := r.arena
	i := sg.at + ivc
	front := a.bufs[i*a.cfg.BufDepth+int(a.head[i])]
	if !front.Type().IsHead() {
		// A body flit without a valid output VC cannot occur: the VC
		// is held from head grant to tail departure.
		panic(fmt.Sprintf("router %d: body flit at front of unallocated VC", r.id))
	}
	hop := a.records.Head(front.Flit(), int(r.id))
	out := hop.Route
	bit := uint64(1) << uint(ivc&63)
	vc := 0
	if a.ports[sg.ports+out] != topology.Local {
		if vc = r.chooseOVC(sg, hop); vc < 0 {
			a.outPort[i] = int8(out)
			a.masks[sg.vaWait()+ivc>>6] |= bit
			return
		}
		a.masks[sg.busy()+out] |= 1 << uint(vc)
		if a.credits[sg.at+out*a.cfg.VCs+vc] == 0 {
			a.masks[sg.noCredit()+ivc>>6] |= bit
		}
	}
	// Ejection needs no downstream VC (vc stays 0): the sink absorbs at
	// link bandwidth, serialised per output port by switch allocation.
	a.ovc[i], a.outPort[i] = int8(vc), int8(out)
	a.masks[sg.hasOVC()+ivc>>6] |= bit
}

// wakeVA returns every head waiting on output out to VC allocation: a
// tail has just freed one of out's VCs. The freed VC may lie outside a
// woken head's admitted range (a torus dateline class); that head fails
// its next try and parks again, exactly as its retry would have, so no
// choice changes. Clearing a busy bit happens nowhere else.
func (a *Arena) wakeVA(sg seg, out int) {
	for wi := range sg.w {
		for w := a.masks[sg.vaWait()+wi]; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			if int(a.outPort[sg.at+wi<<6+b]) == out {
				a.masks[sg.vaWait()+wi] &^= 1 << uint(b)
			}
		}
	}
}

// chooseOVC applies the configured Section 2.3 policy to the VCs hop
// admits at its output port.
func (r *Router) chooseOVC(sg seg, hop Hop) int {
	a := r.arena
	vcs := a.cfg.VCs
	busy := a.masks[sg.busy()+hop.Route]
	free := ^busy & vcSpan(hop.Lo, hop.Hi)
	if free == 0 {
		return -1
	}
	at := sg.at + hop.Route*vcs
	ctx := vaContext{
		free:      free,
		busy:      busy,
		credits:   a.credits[at : at+vcs],
		groupMask: a.groupMask,
		nextDim:   hop.Next,
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

// pending reports whether any input VC awaits an output VC: nonEmpty, not
// hasOVC and not vaWait. VC allocation writes none of those words for
// another input VC, and takeRequests none at all.
func (a *Arena) pending(sg seg) bool {
	var w uint64
	for wi := range sg.w {
		w |= a.masks[sg.nonEmpty()+wi] &^ a.masks[sg.hasOVC()+wi] &^ a.masks[sg.vaWait()+wi]
	}
	return w != 0
}

// takeRequests takes this cycle's switch-allocation request set into
// the ready words: every input VC whose front flit has an output VC with
// a downstream credit (hasOVC and not noCredit) requests its packet's
// output port. The ready words are the set's packed form; outPort and
// wait already are.
func (a *Arena) takeRequests(sg seg) {
	for wi := range sg.w {
		a.masks[sg.ready()+wi] = a.masks[sg.nonEmpty()+wi] & a.masks[sg.hasOVC()+wi] &^ a.masks[sg.noCredit()+wi]
	}
}

// listRequests fills the request list from the ready words, in ascending
// (port, VC) order, for an allocator that is not a built-in kind. Kept
// out of line: built-in kinds never run it, and inlined it would grow
// the code Advance runs through.
//
//go:noinline
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
