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
	// ordering invariants. The flit's slot returns to the network's flit
	// arena as soon as the callback returns, so the callback must not
	// retain the pointer; copy any fields it needs.
	OnEject func(f *router.Flit)

	// HopDelay is the cycles from a switch-allocation win at one router
	// to eligibility at the next (SA + switch traversal + link
	// traversal = 3 for the paper's three-stage pipeline); zero selects
	// DefaultHopDelay. Credits return after DefaultCreditDelay cycles.
	HopDelay int

	// Workers is the number of workers the per-cycle router tick fans
	// out across. 0 or 1 ticks each active router and merges its effects
	// in one pass on the stepping goroutine; N > 1 ticks the cycle's
	// active routers on N workers (the stepping goroutine plus up to N-1
	// pooled goroutines); negative selects GOMAXPROCS. Statistics and
	// ejection order are byte-identical for every value: within a cycle routers
	// interact only through the delayed link/credit/ejection wheels, so
	// router ticks are data-independent, and all cross-router effects
	// are merged in router-index order on the stepping goroutine (see
	// parallel.go). Traffic generation and injection always stay on the
	// stepping goroutine, which owns the RNG streams. A network with
	// Workers > 1 parks background goroutines between cycles; call Close
	// to release them when the instance is done.
	Workers int
}

// Defaults for the three-stage pipeline of Figure 6(b).
const (
	DefaultHopDelay    = 3
	DefaultCreditDelay = 2
	DefaultPacketSize  = 4
)

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
	// Buffer slots and link events name destinations and routers in int32
	// fields and count hops in an int16 (router.Slot).
	if c.Topology.NumNodes > math.MaxInt32 || c.Topology.NumRouters > math.MaxInt32 {
		return fmt.Errorf("network: topology has %d nodes on %d routers, more than %d",
			c.Topology.NumNodes, c.Topology.NumRouters, math.MaxInt32)
	}
	if d := c.Topology.Diameter(); d > math.MaxInt16 {
		return fmt.Errorf("network: topology diameter %d exceeds the hop counter's %d", d, math.MaxInt16)
	}
	if c.PacketSize < 0 {
		return fmt.Errorf("network: negative packet size %d", c.PacketSize)
	}
	if c.HopDelay < 0 {
		return fmt.Errorf("network: negative HopDelay %d", c.HopDelay)
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
	if t := c.Topology; t.Kind == topology.KindTorus && (t.W >= 3 || t.H >= 3) && c.Router.VCs < 2 {
		return fmt.Errorf("network: torus %dx%d needs at least 2 VCs for the dateline classes, got %d",
			t.W, t.H, c.Router.VCs)
	}
	return nil
}

// flitDelivery, creditDelivery and ejection are the in-flight events on
// the wheels, 20, 8 and 8 bytes. A flit travels as its buffer slot — the
// header a hop needs, lookahead route included — so neither sending nor
// landing it resolves the FlitID; the record is next touched at ejection,
// where eject writes the hop state back.
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
	flit      router.FlitID
	hops      int16
	route, vc int8
}

// queuedPacket is one not-yet-injected packet in an NI source queue:
// everything inject needs to materialise the packet's flits one per
// cycle. Queued packets hold no arena slots, so the live flit
// population — and with it the slab high-water mark — is bounded by the
// network's buffering, not by source backlog: a saturated run's queues
// grow by 48 bytes per packet of descriptor, never by flits.
type queuedPacket struct {
	id          uint64
	dst         int
	route       int // output port at the source router, fixed by (source, dst)
	tag         uint64
	size        int
	createCycle int64
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
	q.flits += p.size
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
	cfg   Config
	topo  *topology.Topology
	route routing.Func

	routers []*router.Router
	nis     []*ni

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

	// flits is the network's flit arena: every live flit occupies one slot
	// of its contiguous slab, named by FlitID everywhere in the hot path.
	// A record is cold between inject, which writes it, and eject, which
	// writes the hop state back and reads it. Its high-water mark is
	// bounded by the flits live at once (buffers and links), so the steady
	// state allocates nothing.
	flits *router.FlitArena

	inFlight int64 // flits inside routers or on links (not source queues)

	lastEjectCycle int64 // watchdog: last cycle any flit ejected
	stallLimit     int64 // watchdog threshold: deadlockCycles; tests tighten it

	// Activity state: packed activity words for routers (buffered flits,
	// or a delivery, credit, or injection this cycle) and for NIs with
	// queued flits, plus the cycle each router last ticked so reactivation
	// can fast-forward the skipped idle span (Router.SkipIdle). The
	// invariant every activation source upholds: any state change that can
	// make a router do work next cycle sets its bit before the router pass
	// runs.
	actR     sim.Bitset
	actNI    sim.Bitset
	lastTick []int64

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
		route:      routing.DOR(topo),
		col:        stats.NewCollector(topo.NumNodes),
		stallLimit: deadlockCycles,
	}
	n.qlen = max(cfg.HopDelay, DefaultCreditDelay) + 1
	n.flitQ = make([][]flitDelivery, n.qlen)
	n.credQ = make([][]creditDelivery, n.qlen)
	n.ejectQ = make([][]ejection, n.qlen)

	n.flits = router.NewFlitArena()
	arena := router.NewArena(topo.NumRouters, cfg.Router, n.flits)
	root := sim.NewRNG(cfg.Seed)
	n.routers = make([]*router.Router, topo.NumRouters)
	vcRange := func(r int) router.VCRangeFunc { return nil }
	if topo.Kind == topology.KindTorus {
		vcRange = n.torusVCRangeFunc
	}
	for r := 0; r < topo.NumRouters; r++ {
		ports := make([]router.PortInfo, topo.Radix)
		for p, c := range topo.Conn[r] {
			ports[p] = router.PortInfo{Kind: c.Kind, Dim: c.Dim}
		}
		a, err := alloc.New(cfg.Router.AllocKind, cfg.Router.Alloc())
		if err != nil {
			return nil, err
		}
		n.routers[r] = router.New(r, cfg.Router, ports, a, n.nextDimFunc(r), vcRange(r), arena)
	}
	n.nis = make([]*ni, topo.NumNodes)
	n.rngs = make([]sim.RNG, topo.NumNodes)
	for node := 0; node < topo.NumNodes; node++ {
		n.rngs[node] = *root.Fork(uint64(node))
		n.nis[node] = &ni{node: node, rng: &n.rngs[node], curVC: -1}
	}
	n.setInjectionRate(cfg.InjectionRate)
	n.actR = sim.NewBitset(topo.NumRouters)
	n.actNI = sim.NewBitset(topo.NumNodes)
	n.lastTick = make([]int64, topo.NumRouters)
	for i := range n.lastTick {
		n.lastTick[i] = -1
	}
	n.ticker, _ = cfg.Workload.(Ticker)
	n.initParallel()
	return n, nil
}

// torusVCRangeFunc returns the dateline VC restriction for router r on a
// torus: packets still headed for their ring's wrap edge may only take
// the lower half of the downstream VCs (class 0), packets past it — or
// never crossing — the upper half (class 1). Splitting every output
// port's VC set into the two dateline classes cuts the wraparound
// channel-dependency cycles, keeping minimal routing deadlock-free (see
// routing.TorusVCClass for the argument).
func (n *Network) torusVCRangeFunc(r int) router.VCRangeFunc {
	vcs := n.cfg.Router.VCs
	half := vcs / 2
	return func(outPort, dst int) (int, int) {
		switch routing.TorusVCClass(n.topo, r, outPort, dst) {
		case 0:
			return 0, half
		case 1:
			return half, vcs
		default:
			return 0, vcs
		}
	}
}

// nextDimFunc returns the lookahead dimension classifier for router r:
// the dimension class of the port the packet will request at the router
// reached through outPort.
func (n *Network) nextDimFunc(r int) router.NextDimFunc {
	return func(outPort, dst int) topology.Dim {
		c := n.topo.Conn[r][outPort]
		if c.Kind != topology.Link {
			return topology.DimLocal
		}
		peer := c.PeerRouter
		p := n.route(n.topo, peer, dst)
		return n.topo.Conn[peer][p].Dim
	}
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
	for _, nif := range n.nis {
		q += int64(nif.pending())
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
// router pass runs; a router whose tick reports quiescence has its bit
// cleared and is fast-forwarded with SkipIdle when it next reactivates.
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
		n.routers[d.router].Deliver(int(d.port), int(d.vc), d.slot)
		n.col.BufferWrite()
		n.actR.Set(int(d.router))
	}
	n.flitQ[slot] = n.flitQ[slot][:0]
	for _, d := range n.credQ[slot] {
		rt := n.routers[d.router]
		rt.DeliverCredit(int(d.outPort), int(d.vc))
		// A credit is applied eagerly above; it only creates work — and
		// so only needs to wake the router — if flits are buffered. An
		// empty router's tick is the empty tick SkipIdle replays.
		if rt.Busy() {
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
			n.enqueueStatistical(n.nis[node])
		}
	} else {
		for _, nif := range n.nis {
			n.generate(nif)
		}
	}
	for wi, w := range n.actNI {
		for ; w != 0; w &= w - 1 {
			n.inject(n.nis[wi<<6+bits.TrailingZeros64(w)])
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

// eject retires a flit at its destination and updates statistics. The
// pointer is resolved once here — OnEject keeps its *Flit signature —
// for the first time since inject: the hop state that travelled in slots
// and link events is written back before anything reads the record. The
// slot returns to the arena's free stack afterwards.
func (n *Network) eject(e ejection) {
	f := n.flits.At(e.flit)
	f.Hops, f.Route, f.VC = int(e.hops), int(e.route), int(e.vc)
	f.EjectCycle = n.cycle
	n.inFlight--
	n.lastEjectCycle = n.cycle
	n.col.FlitEjected(f.Src)
	if f.Type.IsTail() {
		n.col.PacketEjected(n.cycle-f.CreateCycle, f.Hops)
		if n.cfg.Workload != nil {
			n.cfg.Workload.Delivered(Delivery{
				Src: f.Src, Dst: f.Dst, Tag: f.Tag,
				CreateCycle: f.CreateCycle, EjectCycle: n.cycle, Hops: f.Hops,
			})
		}
	}
	if n.cfg.OnEject != nil {
		n.cfg.OnEject(f)
	}
	n.flits.Free(e.flit)
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
	if size <= 0 {
		panic("network: packet size must be positive")
	}
	nif.push(queuedPacket{
		id:          id,
		dst:         spec.Dst,
		route:       n.route(n.topo, n.topo.NodeRouter[nif.node], spec.Dst),
		tag:         spec.Tag,
		size:        size,
		createCycle: n.cycle,
	})
	n.actNI.Set(nif.node)
}

// inject moves at most one flit from nif's source queue into the local
// input port of its router, choosing an injection VC for head flits with
// the same sub-group policy the routers use.
func (n *Network) inject(nif *ni) {
	if nif.pending() == 0 {
		return
	}
	p := nif.front()
	r := n.topo.NodeRouter[nif.node]
	port := n.topo.NodePort[nif.node]
	rt := n.routers[r]
	ft := router.PacketFlitType(nif.seq, p.size)

	if ft.IsHead() {
		if nif.curVC >= 0 {
			panic("network: head flit while previous packet still streaming")
		}
		vc := n.chooseInjectionVC(rt, r, port, p.route)
		if vc < 0 {
			return // no space at the local port this cycle
		}
		nif.curVC = vc
	}
	if rt.BufferSpace(port, nif.curVC) == 0 {
		return
	}
	// The flit is materialised only now that it is certain to enter the
	// network, so source backlog never pins arena slots.
	fid := n.flits.Alloc()
	f := n.flits.At(fid)
	f.PacketID = p.id
	f.Type = ft
	f.Src = nif.node
	f.Dst = p.dst
	f.Tag = p.tag
	f.Seq = nif.seq
	f.PacketSize = p.size
	f.CreateCycle = p.createCycle
	rt.Deliver(port, nif.curVC, router.Slot{Flit: fid, Dst: int32(p.dst), Route: int8(p.route), Type: ft})
	n.col.BufferWrite()
	n.inFlight++
	nif.popFlit(p.size)
	n.actR.Set(r)
	if nif.pending() == 0 {
		n.actNI.Clear(nif.node)
	}
	if ft.IsHead() {
		f.InjectCycle = n.cycle
		n.col.PacketInjected(f.PacketSize)
	}
	if ft.IsTail() {
		nif.curVC = -1
	}
}

// chooseInjectionVC picks the local-port VC a new packet starts in:
// prefer the sub-group matching the packet's first route dimension (so
// VIX virtual inputs at the injection router see diverse requests), then
// the VC with the most space. Returns -1 if nothing has space.
func (n *Network) chooseInjectionVC(rt *router.Router, r, port, route int) int {
	acfg := n.cfg.Router.Alloc()
	dim := n.topo.Conn[r][route].Dim
	prefGroup := 0
	if acfg.VirtualInputs > 1 && dim != topology.DimX {
		prefGroup = acfg.VirtualInputs - 1
	}
	best, bestSpace := -1, 0
	bestPref := false
	for vc := 0; vc < n.cfg.Router.VCs; vc++ {
		// Any VC with space is eligible: the NI streams packets strictly
		// sequentially, so a new packet queued behind the previous tail
		// in the same VC preserves wormhole FIFO order.
		space := rt.BufferSpace(port, vc)
		if space == 0 {
			continue
		}
		pref := acfg.Subgroup(vc) == prefGroup
		if best < 0 || (pref && !bestPref) || (pref == bestPref && space > bestSpace) {
			best, bestSpace, bestPref = vc, space, pref
		}
	}
	return best
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
