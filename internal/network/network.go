// Package network assembles routers, links, and network interfaces into a
// cycle-accurate network-on-chip simulation matching the paper's
// methodology: three-stage routers with lookahead routing, wormhole
// switching, virtual-channel flow control, credit-based backpressure,
// finite input buffering, and statistical traffic injection.
package network

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"vix/internal/alloc"
	"vix/internal/router"
	"vix/internal/routing"
	"vix/internal/sim"
	"vix/internal/stats"
	"vix/internal/topology"
	"vix/internal/traffic"
)

// PacketSpec describes one packet a workload wants to send.
type PacketSpec struct {
	Dst  int
	Size int
	// Tag is an opaque workload identifier carried to Delivered.
	Tag uint64
}

// Delivery describes a completed packet for workload callbacks.
type Delivery struct {
	Src, Dst    int
	Tag         uint64
	CreateCycle int64
	EjectCycle  int64
	Hops        int
}

// Workload drives packet generation. The statistical workload of the
// paper's Section 4 is the default; the trace-driven manycore of Section
// 4.7 plugs in its own implementation.
type Workload interface {
	// Generate is invoked once per node per cycle and returns the
	// packets to enqueue at that node's source queue.
	Generate(node int, cycle int64, rng *sim.RNG) []PacketSpec
	// Delivered is invoked when a packet's tail flit ejects.
	Delivered(d Delivery)
}

// Ticker is an optional Workload extension: Tick runs once per cycle,
// after link deliveries (and hence all Delivered callbacks for the cycle)
// and before any Generate call, letting stateful workloads such as the
// manycore model advance cores and caches with a consistent view.
type Ticker interface {
	Tick(cycle int64)
}

// Config describes one network simulation.
type Config struct {
	Topology *topology.Topology
	Router   router.Config
	Pattern  traffic.Pattern

	// Workload overrides the statistical traffic process built from
	// Pattern/InjectionRate/MaxInjection when non-nil.
	Workload Workload

	// InjectionRate is the offered load in packets/cycle/node. When
	// MaxInjection is set the rate is ignored and every source keeps a
	// packet backlog, measuring saturation throughput.
	InjectionRate float64
	MaxInjection  bool

	// PacketSize is the flits per packet (the paper uses 4: 512-bit
	// packets over a 128-bit datapath; the packet-chaining study uses 1).
	PacketSize int

	Seed uint64

	// OnEject, when non-nil, observes every flit as it leaves the
	// network (after statistics are updated). Tests use it to check
	// ordering invariants. The Flit is network-owned scratch, rebuilt at
	// every ejection, so the callback must not retain the pointer; copy
	// any fields it needs.
	OnEject func(f *router.Flit)

	// HopDelay is the cycles from a switch-allocation win at one router
	// to eligibility at the next (SA + switch traversal + link
	// traversal = 3 for the paper's three-stage pipeline); zero selects
	// DefaultHopDelay. Credits return after DefaultCreditDelay cycles.
	HopDelay int

	// Workers is the number of workers the per-cycle router tick fans
	// out across. 1 or less ticks each active router and merges its
	// effects in one pass on the stepping goroutine; N > 1 ticks the
	// cycle's active routers on N workers (the stepping goroutine plus up
	// to N-1 pooled goroutines), at most one per router. Statistics and
	// ejection order are byte-identical for every value: within a cycle routers
	// interact only through the delayed link/credit/ejection wheels, so
	// router ticks are data-independent, and all cross-router effects
	// are merged in router-index order on the stepping goroutine (see
	// parallel.go). Traffic generation and injection always stay on the
	// stepping goroutine, which owns the RNG streams. A network with
	// Workers > 1 parks background goroutines between cycles; call Close
	// to release them when the instance is done. Each worker ticks in a
	// lane of its own, and the arena and allocators keep a tick's
	// scratch once per lane.
	Workers int
}

// Defaults for the three-stage pipeline of Figure 6(b).
const (
	DefaultHopDelay    = 3
	DefaultCreditDelay = 2
	DefaultPacketSize  = 4
)

// MaxPacketSize is the largest packet, in flits, a network carries: a
// packet's record keeps its size, and counts the flits of it ejected (a
// flit's Seq at ejection), in int16s.
const MaxPacketSize = math.MaxInt16

// MaxHops is the longest path, in links, a network routes: a packet's
// record keeps its hop count in an int16.
const MaxHops = math.MaxInt16

// MaxHopDelay is the longest hop, in cycles, a network models: its delay
// wheels keep a slot per cycle of it, so an unbounded delay is an
// unbounded allocation. 1 024 is about 340 times the paper's 3.
const MaxHopDelay = 1024

// deadlockCycles is the forward-progress watchdog: if flits are in flight
// but none ejects for this many consecutive cycles, Step panics with a
// diagnostic (a correct DOR configuration can never trip it). Saturated
// meshes eject every few cycles, so this is far outside normal behaviour.
const deadlockCycles = 20000

func (c *Config) setDefaults() {
	if c.HopDelay == 0 {
		c.HopDelay = DefaultHopDelay
	}
	if c.PacketSize == 0 {
		c.PacketSize = DefaultPacketSize
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Topology == nil {
		return errors.New("network: Topology is required")
	}
	if c.Router.Ports != c.Topology.Radix {
		return fmt.Errorf("network: router has %d ports but topology radix is %d", c.Router.Ports, c.Topology.Radix)
	}
	// Link events name routers in an int32, packet records count hops in
	// an int16, and buffer slots name packet records in 30 bits.
	if c.Topology.NumRouters > math.MaxInt32 {
		return fmt.Errorf("network: topology has %d routers, more than %d", c.Topology.NumRouters, math.MaxInt32)
	}
	if d := c.Topology.Diameter(); d > MaxHops {
		return fmt.Errorf("network: topology diameter %d exceeds the hop counter's %d", d, MaxHops)
	}
	if live := c.maxLivePackets(); live > router.MaxFlitID+1 {
		return fmt.Errorf("network: up to %.0f packets may be in flight, more than the %d a buffer slot can name", live, router.MaxFlitID+1)
	}
	if c.PacketSize < 0 || c.PacketSize > MaxPacketSize {
		return fmt.Errorf("network: packet size %d is not in 0..%d", c.PacketSize, MaxPacketSize)
	}
	if c.HopDelay < 0 || c.HopDelay > MaxHopDelay {
		return fmt.Errorf("network: HopDelay %d is not in 0..%d", c.HopDelay, MaxHopDelay)
	}
	if c.Workload == nil {
		if c.Pattern == nil {
			return errors.New("network: Pattern is required without a Workload")
		}
		if c.InjectionRate < 0 || math.IsNaN(c.InjectionRate) || math.IsInf(c.InjectionRate, 0) {
			return fmt.Errorf("network: injection rate %v is negative or not finite", c.InjectionRate)
		}
		if !c.MaxInjection && c.InjectionRate == 0 {
			return errors.New("network: zero injection rate without MaxInjection")
		}
	}
	if err := c.Router.Validate(); err != nil {
		return err
	}
	return CheckTorusVCs(c.Topology.Kind, c.Topology.W, c.Topology.H, c.Router.VCs)
}

// maxLivePackets bounds the packets in flight at once, which is the
// records a network keeps: a live packet has a flit in a router buffer
// (its head, or the flits behind it while its NI stalls), on a link
// (holding a credit for a downstream buffer slot) or on the ejection
// wheel (at most one per terminal per cycle of the hop delay). It counts
// in float64, exact below 2⁵³, so no product overflows.
func (c *Config) maxLivePackets() float64 {
	t, r := c.Topology, c.Router
	slots := float64(t.NumRouters) * float64(t.Radix) * float64(r.VCs) * float64(r.BufDepth)
	return slots + float64(t.NumNodes)*float64(max(c.HopDelay, DefaultHopDelay))
}

// CheckTorusVCs is the one statement of the torus VC rule: a torus with
// a wraparound ring (a side of 3 or more) splits each port's VCs into
// two dateline classes, so it needs at least 2. config.Validate files
// the error under "vcs".
func CheckTorusVCs(kind topology.Kind, w, h, vcs int) error {
	if kind == topology.KindTorus && (w >= 3 || h >= 3) && vcs < 2 {
		return fmt.Errorf("network: a torus with wraparound rings needs at least 2 VCs for the dateline classes, got %d", vcs)
	}
	return nil
}

// Head implements router.Records from one route-table step toward the
// packet's destination: its port, its lookahead, and the downstream VCs
// its dateline class admits (CheckTorusVCs). A head still bound for its
// ring's wrap edge (class 0) takes the lower half of the VCs, one past it
// or never crossing (class 1) the upper half, which cuts the wraparound
// dependency cycles; a hop of no class (off the torus) takes any.
func (s *flitStore) Head(id router.FlitID, r int) router.Hop {
	st := s.routes.Step(r, int(s.At(id).dst))
	hop := router.Hop{Route: st.Port, Hi: s.vcs, Next: st.Next}
	switch st.Class {
	case 0:
		hop.Hi = s.vcs / 2
	case 1:
		hop.Lo = s.vcs / 2
	}
	return hop
}

// flitDelivery, creditDelivery and ejection are the in-flight events on
// the wheels, 12, 8 and 8 bytes. A flit travels as its 4-byte buffer
// slot, its record's id and its type, so neither sending nor landing it
// resolves the FlitID; its packet's record is next read at the next VC
// allocation (a head) or at ejection, where the event supplies the local
// port it left through (route) and its VC.
type flitDelivery struct {
	slot     router.Slot
	router   int32
	port, vc int8
}

type creditDelivery struct {
	router      int32
	outPort, vc int8
}

type ejection struct {
	slot      router.Slot
	route, vc int8
}

// flitRecord is what the network keeps of an in-flight packet, 24 bytes
// without pointers, named by every flit of the packet: the fields its
// flits share that the simulation reads, which inject writes at the head
// and eject reads at every flit. Every flit of a packet takes its head's
// path, so the hop count is the path's, which inject computes from the
// route table; flits of a packet eject in order, so a flit's Seq is the
// count of its packet's flits ejected before it. Type, Route and VC
// differ per flit and travel in its buffer slots and ejection event; the
// Flit OnEject sees is assembled from both and from the packet's observed
// entry.
type flitRecord struct {
	createCycle int64
	src, dst    int32
	packetSize  int16 // at most MaxPacketSize; a free record's is 0
	hops        int16 // links on the packet's DOR path
	ejected     int16 // flits of the packet ejected so far
}

// observed is what only an observer reads of an in-flight packet, 24
// bytes: its PacketID and Tag, for OnEject and Workload.Delivered, and
// the cycle its head entered, for OnEject.
type observed struct {
	packetID, tag uint64
	injectCycle   int64
}

// flitStore is the network's slab of packet records, and the route table
// that gives a head its hop at each router. Where OnEject or a Workload
// reads them, observed keeps each record's observed entry under the
// record's id, grown with the slab; elsewhere it is nil.
type flitStore struct {
	router.Slab[flitRecord]
	observed []observed
	observe  bool // OnEject or a Workload is set
	routes   *routing.Table
	vcs      int // downstream VCs per port
}

// Alloc returns the id of a zeroed record, growing observed with the
// slab where it is kept.
func (s *flitStore) Alloc() router.FlitID {
	id := s.Slab.Alloc()
	if s.observe && len(s.observed) < s.Cap() {
		grown := make([]observed, s.Cap())
		copy(grown, s.observed)
		s.observed = grown
	}
	return id
}

// Packet implements router.Records: a packet is named by its record's
// id, which every flit of it names and no other live packet shares. A
// freed record is zero, and a live one has a positive size.
func (s *flitStore) Packet(id router.FlitID) (uint64, bool) {
	if !s.Holds(id) || s.At(id).packetSize <= 0 {
		return 0, false
	}
	return uint64(id), true
}

// queuedPacket is one not-yet-injected packet in an NI source queue:
// everything inject needs to materialise the packet's flits one per
// cycle. Queued packets hold no record slots, so the live packet
// population — and with it the slab high-water mark — is bounded by the
// network's buffering, not by source backlog: a saturated run's queues
// grow by 32 bytes per packet of descriptor, never by records.
type queuedPacket struct {
	id, tag     uint64
	createCycle int64
	dst, size   int32
}

// ni is the network interface of one terminal node: an unbounded source
// queue feeding the node's local input port at one flit per cycle. The
// queue is a deque over a reused backing array: popping advances head
// instead of reslicing from the front, so sustained backlog does not leak
// an ever-growing prefix of consumed slots.
type ni struct {
	node  int
	rng   *sim.RNG // this node's element of Network.rngs
	queue []queuedPacket
	head  int // index of the front packet within queue
	seq   int // flits of the front packet already injected
	flits int // queued flits not yet injected
	curVC int
	rec   router.FlitID // the streaming packet's record, while curVC >= 0
}

// pending returns the number of queued flits.
func (q *ni) pending() int { return q.flits }

// backlog returns the number of queued packets.
func (q *ni) backlog() int { return len(q.queue) - q.head }

// front returns the next packet to inject flits of; q must be non-empty.
func (q *ni) front() *queuedPacket { return &q.queue[q.head] }

// push appends a packet, compacting consumed front slots first when the
// backing array is full so append never grows it unnecessarily.
func (q *ni) push(p queuedPacket) {
	if q.head > 0 && len(q.queue) == cap(q.queue) {
		n := copy(q.queue, q.queue[q.head:])
		q.queue = q.queue[:n]
		q.head = 0
	}
	q.queue = append(q.queue, p)
	q.flits += int(p.size)
}

// popFlit consumes one flit of the front packet (of the given size),
// retiring the packet when its tail goes. Consumed slots hold no
// pointers; compaction in push reclaims them.
func (q *ni) popFlit(size int) {
	q.flits--
	q.seq++
	if q.seq == size {
		q.seq = 0
		q.head++
		if q.head == len(q.queue) {
			q.queue = q.queue[:0]
			q.head = 0
		}
	}
}

// Network is a running simulation instance.
type Network struct {
	cfg    Config
	topo   *topology.Topology
	routes *routing.Table

	routers []*router.Router
	// arena holds every router's state; the delivery loop and inject
	// reach a router's slabs through it by index, without the Router.
	arena *router.Arena
	nis   []ni

	// rngs holds every node's generator contiguously, in node order, so
	// the statistical injection draw is one linear walk; injectThr is
	// sim.BernoulliThreshold of the injection rate (setInjectionRate).
	rngs      []sim.RNG
	injectThr uint64

	cycle        int64
	nextPacketID uint64

	// Delay wheels: slot cycle%qlen holds the events landing this cycle.
	// hopSlot and credSlot are the slots this cycle's emissions and credits
	// land in, computed once per Step by deliver.
	qlen     int
	flitQ    [][]flitDelivery
	credQ    [][]creditDelivery
	ejectQ   [][]ejection
	hopSlot  int
	credSlot int

	col *stats.Collector

	// flits keeps one record per in-flight packet — a packet with a flit
	// in a router or on a link — in a contiguous slab, named by FlitID
	// everywhere in the hot path. A record is written when its head is
	// injected, read at each of its flits' ejections and freed at its
	// tail's. Its high-water mark is bounded by the packets live at once,
	// so the steady state allocates nothing.
	flits flitStore

	inFlight int64 // flits inside routers or on links (not source queues)

	lastEjectCycle int64 // watchdog: last cycle any flit ejected
	stallLimit     int64 // watchdog threshold: deadlockCycles; tests tighten it

	// Activity state: packed activity words for routers (buffered flits,
	// or a delivery, credit, or injection this cycle) and for NIs with
	// queued flits. A router skips its idle cycles without a trace: what
	// rotates per cycle is a function of the cycle (Router.Advance). The
	// invariant every activation source upholds: any state change that can
	// make a router do work next cycle sets its bit before the router pass
	// runs.
	actR  sim.Bitset
	actNI sim.Bitset

	// The workload's optional Ticker extension, resolved once in New.
	ticker Ticker

	// routerTicks counts Router.Advance calls actually executed; tests and
	// benchmarks compare it against routers x cycles to prove idle
	// routers really were skipped.
	routerTicks int64

	// pool is the router tick's worker pool (one-wide, hence inline and
	// goroutine-free, when Workers <= 1); act is the worklist scratch the
	// pooled schedule fans out over, empty on a one-wide pool.
	pool *sim.Pool
	act  activeScratch

	// ejected is the Flit OnEject sees, rebuilt at every ejection.
	ejected router.Flit
}

// New builds a network simulation from cfg.
func New(cfg Config) (*Network, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo := cfg.Topology
	n := &Network{
		cfg:        cfg,
		topo:       topo,
		routes:     routing.Compile(topo),
		col:        stats.NewCollector(topo.NumNodes),
		stallLimit: deadlockCycles,
	}
	n.qlen = max(cfg.HopDelay, DefaultCreditDelay) + 1
	n.flitQ = make([][]flitDelivery, n.qlen)
	n.credQ = make([][]creditDelivery, n.qlen)
	n.ejectQ = make([][]ejection, n.qlen)

	n.flits.routes, n.flits.vcs = n.routes, cfg.Router.VCs
	n.flits.observe = cfg.OnEject != nil || cfg.Workload != nil
	workers := lanes(&cfg)
	n.arena = router.NewArena(topo.NumRouters, workers, cfg.Router, &n.flits)
	root := sim.NewRNG(cfg.Seed)
	n.routers = make([]*router.Router, topo.NumRouters)
	ports := make([]router.PortInfo, topo.Radix) // copied into the arena by router.New
	// One call builds every router's allocator: a built-in kind's are
	// views of one pool, whose slabs hold all their state, with a lane of
	// scratch per router-tick worker.
	allocs, err := alloc.NewMany(cfg.Router.AllocKind, cfg.Router.Alloc(), topo.NumRouters, workers)
	if err != nil {
		return nil, err
	}
	for r := 0; r < topo.NumRouters; r++ {
		for p, c := range topo.Conn[r] {
			ports[p] = router.PortInfo{Kind: c.Kind, Dim: c.Dim}
		}
		n.routers[r] = router.New(r, cfg.Router, ports, allocs[r], nil, nil, n.arena)
	}
	n.nis = make([]ni, topo.NumNodes)
	n.rngs = make([]sim.RNG, topo.NumNodes)
	for node := 0; node < topo.NumNodes; node++ {
		n.rngs[node] = *root.Fork(uint64(node))
		n.nis[node] = ni{node: node, rng: &n.rngs[node], curVC: -1}
	}
	n.setInjectionRate(cfg.InjectionRate)
	n.actR = sim.NewBitset(topo.NumRouters)
	n.actNI = sim.NewBitset(topo.NumNodes)
	n.ticker, _ = cfg.Workload.(Ticker)
	n.initParallel(workers)
	return n, nil
}

// Cycle returns the current simulation cycle.
func (n *Network) Cycle() int64 { return n.cycle }

// Collector returns the live statistics collector.
func (n *Network) Collector() *stats.Collector { return n.col }

// InFlight returns the number of flits inside the network (router buffers
// and links), excluding source queues.
func (n *Network) InFlight() int64 { return n.inFlight }

// QueuedAtSources returns the flits waiting in NI source queues.
func (n *Network) QueuedAtSources() int64 {
	var q int64
	for i := range n.nis {
		q += int64(n.nis[i].pending())
	}
	return q
}

// Step advances the simulation one cycle.
//
// The per-cycle loops over routers and NIs are walks over packed activity
// bitsets, visiting the indices a loop over all of them would find work
// at — in the same ascending order, which is what keeps RNG streams,
// statistics, and CSV output byte-identical to the dense reference
// (stepDense in the tests; DESIGN.md, "Network step"). Every delivery,
// credit, and injection marks its destination router's bit before the
// router pass runs; a router its tick leaves without buffered flits has
// its bit cleared and is not ticked again until one of them sets it. Skipping
// its idle cycles leaves no trace, since what rotates per cycle is a
// function of the cycle.
func (n *Network) Step() {
	n.deliver()
	// Workload state machines advance once all deliveries are visible.
	if n.ticker != nil {
		n.ticker.Tick(n.cycle)
	}
	n.source()
	n.tickRouters()
	n.endCycle()
}

// deliver lands the link, credit and ejection events scheduled for this
// cycle, and fixes the wheel slots this cycle's own events will land in.
func (n *Network) deliver() {
	slot := int(n.cycle % int64(n.qlen))
	n.hopSlot = (slot + n.cfg.HopDelay) % n.qlen
	n.credSlot = (slot + DefaultCreditDelay) % n.qlen
	for _, d := range n.flitQ[slot] {
		n.arena.Deliver(int(d.router), int(d.port), int(d.vc), d.slot)
		n.col.BufferWrite()
		n.actR.Set(int(d.router))
	}
	n.flitQ[slot] = n.flitQ[slot][:0]
	for _, d := range n.credQ[slot] {
		n.arena.DeliverCredit(int(d.router), int(d.outPort), int(d.vc))
		// A credit is applied eagerly above; it only creates work — and
		// so only needs to wake the router — if flits are buffered. An
		// empty router's tick would change nothing.
		if n.arena.Busy(int(d.router)) {
			n.actR.Set(int(d.router))
		}
	}
	n.credQ[slot] = n.credQ[slot][:0]
	for _, e := range n.ejectQ[slot] {
		n.eject(e)
	}
	n.ejectQ[slot] = n.ejectQ[slot][:0]
}

// setInjectionRate sets the statistical process's rate and the integer
// threshold source draws against — the one place the threshold is derived.
func (n *Network) setInjectionRate(rate float64) {
	n.cfg.InjectionRate = rate
	n.injectThr = sim.BernoulliThreshold(rate)
}

// source runs traffic generation for every node, then injects one flit
// from every NI with queued flits, walking the NI activity words in
// ascending node order. Generating for all nodes before injecting from
// any equals interleaving the two per node: generation touches only
// per-NI state and the shared packet-ID counter, in the same ascending
// node order either way, and injection at one node never observes
// another node's injection (distinct local ports).
//
// The statistical process draws once per node per cycle — that draw is
// the RNG stream — and below saturation almost every draw misses, so the
// draws are the cycle: they run as one scan over the contiguous
// generators comparing integers (sim.NextBelow, outcome for outcome what
// the reference's per-NI rng.Bernoulli(rate) decides), which stops only
// at a node that injects.
func (n *Network) source() {
	if n.cfg.Workload == nil && !n.cfg.MaxInjection {
		rngs, thr := n.rngs, n.injectThr
		for node := sim.NextBelow(rngs, 0, thr); node < len(rngs); node = sim.NextBelow(rngs, node+1, thr) {
			n.enqueueStatistical(&n.nis[node])
		}
	} else {
		for i := range n.nis {
			n.generate(&n.nis[i])
		}
	}
	for wi, w := range n.actNI {
		for ; w != 0; w &= w - 1 {
			n.inject(&n.nis[wi<<6+bits.TrailingZeros64(w)])
		}
	}
}

// endCycle closes the cycle: the collector's cycle count, the
// forward-progress watchdog, and the clock.
func (n *Network) endCycle() {
	n.col.Tick()
	if n.inFlight > 0 && n.cycle-n.lastEjectCycle > n.stallLimit {
		panic(fmt.Sprintf(
			"network: no flit ejected for %d cycles with %d flits in flight at cycle %d — deadlock or livelock",
			n.stallLimit, n.inFlight, n.cycle))
	}
	n.cycle++
}

// eject retires a flit at its destination and updates statistics from
// its packet's record, whose count of flits ejected is the flit's Seq,
// and its ejection event, which carries the flit's slot and VC. The
// public Flit is assembled, into network-owned scratch, only for OnEject,
// and the Delivery only for a Workload; both read the packet's observed
// entry. A tail returns the record to the free stack afterwards.
func (n *Network) eject(e ejection) {
	id := e.slot.Flit()
	f := n.flits.At(id)
	typ := e.slot.Type()
	seq := f.ejected
	f.ejected++
	n.inFlight--
	n.lastEjectCycle = n.cycle
	n.col.FlitEjected(int(f.src))
	if typ.IsTail() {
		n.col.PacketEjected(n.cycle-f.createCycle, int(f.hops))
		if n.cfg.Workload != nil {
			n.cfg.Workload.Delivered(Delivery{
				Src: int(f.src), Dst: int(f.dst), Tag: n.flits.observed[id].tag,
				CreateCycle: f.createCycle, EjectCycle: n.cycle, Hops: int(f.hops),
			})
		}
	}
	if n.cfg.OnEject != nil {
		o := &n.flits.observed[id]
		var injectCycle int64 // set on a head only
		if typ.IsHead() {
			injectCycle = o.injectCycle
		}
		n.ejected = router.Flit{
			PacketID: o.packetID, Type: typ, Src: int(f.src), Dst: int(f.dst), Tag: o.tag,
			Seq: int(seq), PacketSize: int(f.packetSize), Route: int(e.route), VC: int(e.vc),
			CreateCycle: f.createCycle, InjectCycle: injectCycle, EjectCycle: n.cycle, Hops: int(f.hops),
		}
		n.cfg.OnEject(&n.ejected)
	}
	if typ.IsTail() {
		n.flits.Free(id)
	}
}

// Routers exposes the router instances; tests use it to check credit and
// buffer invariants.
func (n *Network) Routers() []*router.Router { return n.routers }

// generate enqueues new packets at nif according to the workload or, under
// MaxInjection, to keep a backlog; the statistical process's draw is in
// source.
func (n *Network) generate(nif *ni) {
	if n.cfg.Workload != nil {
		for _, spec := range n.cfg.Workload.Generate(nif.node, n.cycle, nif.rng) {
			n.enqueuePacket(nif, spec)
		}
		return
	}
	for nif.backlog() < 2 {
		n.enqueueStatistical(nif)
	}
}

// enqueueStatistical enqueues one packet of the statistical traffic
// process at nif, to a destination drawn from the pattern.
func (n *Network) enqueueStatistical(nif *ni) {
	n.enqueuePacket(nif, PacketSpec{
		Dst:  n.cfg.Pattern.Dest(nif.node, nif.rng),
		Size: n.cfg.PacketSize,
	})
}

func (n *Network) enqueuePacket(nif *ni, spec PacketSpec) {
	id := n.nextPacketID
	n.nextPacketID++
	size := spec.Size
	if size <= 0 {
		size = n.cfg.PacketSize
	}
	if size <= 0 || size > MaxPacketSize {
		panic(fmt.Sprintf("network: packet size %d is not in 1..%d", size, MaxPacketSize))
	}
	nif.push(queuedPacket{
		id:          id,
		tag:         spec.Tag,
		createCycle: n.cycle,
		dst:         int32(spec.Dst),
		size:        int32(size),
	})
	n.actNI.Set(nif.node)
}

// inject moves at most one flit from nif's source queue into the local
// input port of its router, which picks the VC a head flit starts in.
func (n *Network) inject(nif *ni) {
	if nif.pending() == 0 {
		return
	}
	p := nif.front()
	r := n.topo.NodeRouter[nif.node]
	port := n.topo.NodePort[nif.node]
	rt := n.routers[r]
	size, dst := int(p.size), int(p.dst)
	ft := router.PacketFlitType(nif.seq, size)

	if ft.IsHead() {
		if nif.curVC >= 0 {
			panic("network: head flit while previous packet still streaming")
		}
		vc := rt.InjectionVC(port, n.topo.Conn[r][n.routes.Port(r, dst)].Dim)
		if vc < 0 {
			return // no space at the local port this cycle
		}
		nif.curVC = vc
	}
	if rt.BufferSpace(port, nif.curVC) == 0 {
		return
	}
	if ft.IsHead() {
		// The packet's record is made only now that its head is certain to
		// enter the network, so source backlog never pins slab slots.
		nif.rec = n.flits.Alloc()
		*n.flits.At(nif.rec) = flitRecord{
			createCycle: p.createCycle, src: int32(nif.node), dst: p.dst,
			packetSize: int16(size), hops: int16(n.routes.Hops(r, dst)),
		}
		if n.flits.observe {
			n.flits.observed[nif.rec] = observed{packetID: p.id, tag: p.tag, injectCycle: n.cycle}
		}
		n.col.PacketInjected(size)
	}
	n.arena.Deliver(r, port, nif.curVC, router.NewSlot(nif.rec, ft))
	n.col.BufferWrite()
	n.inFlight++
	nif.popFlit(size)
	n.actR.Set(r)
	if nif.pending() == 0 {
		n.actNI.Clear(nif.node)
	}
	if ft.IsTail() {
		nif.curVC = -1
	}
}

// Run advances the simulation the given number of cycles.
func (n *Network) Run(cycles int) {
	for i := 0; i < cycles; i++ {
		n.Step()
	}
}

// Warmup runs the given cycles and then clears statistics.
func (n *Network) Warmup(cycles int) {
	n.Run(cycles)
	n.col.Reset()
}

// Measure runs the given cycles and returns the window's snapshot.
func (n *Network) Measure(cycles int) stats.Snapshot {
	n.Run(cycles)
	return n.col.Snapshot()
}

// RouterTicks returns the number of Router.Advance calls executed so far:
// the work actually done, against routers x cycles for a loop that
// visits every router.
func (n *Network) RouterTicks() int64 { return n.routerTicks }
