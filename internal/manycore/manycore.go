// Package manycore implements the trace-driven 64-core system model of
// the paper's Section 4.7 and Table 2: per-core private L1s (modelled via
// the trace generator's miss stream), a shared L2 distributed over one
// bank per node, eight on-chip memory controllers, and cores whose
// progress is limited by their memory-level parallelism — all
// communicating over the cycle-accurate NoC as a network.Workload.
//
// Memory transactions travel as packets: an L1 miss sends a single-flit
// request from the core's node to an address-interleaved L2 bank; after
// the bank latency, a five-flit reply (64-byte line over the 128-bit
// datapath plus header) returns. L2 misses additionally make the
// bank-to-memory-controller round trip with the DRAM latency in between.
// System performance is the weighted speedup over per-core IPC, the
// metric Table 4 reports as "Speedup".
package manycore

import (
	"fmt"

	"vix/internal/network"
	"vix/internal/sim"
	"vix/internal/trace"
)

// Table 2's processor configuration, reduced to the parameters that
// affect network traffic and timing.
const (
	// issueWidth is instructions retired per cycle when not stalled
	// (2-way cores at the network clock).
	issueWidth = 2.0
	// mlpWindow bounds outstanding misses per core: a 2-way out-of-order
	// core's reorder buffer sustains a handful of overlapped misses, far
	// fewer than its 32 MSHRs.
	mlpWindow = 8
	// l2Latency is the bank access latency in cycles (Table 2: 6).
	l2Latency = 6
	// memLatency is the DRAM access latency in cycles (80 ns at 2 GHz).
	memLatency = 160
	// reqFlits and replyFlits size the request and data-reply packets:
	// a single-flit request, and a 64-byte line plus header on the
	// 128-bit datapath.
	reqFlits, replyFlits = 1, 5
	// mcServiceCycles is the minimum spacing between request starts at
	// one memory controller (Table 2: four DDR channels at 16 GB/s per
	// MC move one 64-byte line every two cycles at 2 GHz).
	mcServiceCycles = 2
)

// memControllers lists the nodes hosting the eight memory controllers,
// spread along the top and bottom rows of the 8x8 logical node grid.
var memControllers = [...]int{
	0, 2, 4, 6, // top row
	57, 59, 61, 63, // bottom row
}

// txn phases, encoded in the packet Tag alongside the transaction id.
const (
	phaseReqToBank = iota
	phaseBankToMem
	phaseMemToBank
	phaseReplyToCore
)

// tag packs (txn id, phase) into a packet tag.
func tag(id uint64, phase int) uint64 { return id<<2 | uint64(phase) }

func untag(t uint64) (id uint64, phase int) { return t >> 2, int(t & 3) }

// txn tracks one outstanding memory transaction.
type txn struct {
	core   int
	bank   int
	mc     int
	l2Miss bool
	issued int64
}

// core is one trace-driven processor.
type core struct {
	node        int
	gen         *trace.Generator
	outstanding int
	// toNextMiss counts instructions until the next L1 miss.
	toNextMiss float64
	nextL2Miss bool
	retired    float64
}

// event is a deferred packet emission (after a service latency); node < 0
// marks a network-free local completion.
type event struct {
	node int
	spec network.PacketSpec
}

// System is the manycore model; it implements network.Workload and
// network.Ticker.
type System struct {
	nodes int
	cores []*core
	rng   *sim.RNG

	txns   map[uint64]*txn
	nextID uint64

	// outbox[n] holds packets node n emits this cycle; events holds
	// future emissions ordered by a simple calendar queue.
	outbox   [][]network.PacketSpec
	calendar map[int64][]event

	// mcNextFree[node] is the earliest cycle the memory controller at
	// node may start its next DRAM access (bandwidth model), at most one
	// start per mcService cycles (mcServiceCycles; tests vary it).
	mcNextFree map[int]int64
	mcService  int64

	// memory-latency accounting for observability
	memLatSum   float64
	memLatCount int64

	cycle int64
}

// New builds a manycore system for the given per-node application
// assignment (one core per node), with its address map and traces
// seeded from seed. It returns an error if a memory-controller node is
// not among the len(apps) nodes.
func New(seed uint64, apps []trace.App) (*System, error) {
	nodes := len(apps)
	for _, mc := range memControllers {
		if mc >= nodes {
			return nil, fmt.Errorf("manycore: memory controller node %d out of range for %d nodes", mc, nodes)
		}
	}
	s := &System{
		nodes:      nodes,
		rng:        sim.NewRNG(seed ^ 0x6d635f73797374), // distinct address-map stream
		txns:       make(map[uint64]*txn),
		outbox:     make([][]network.PacketSpec, nodes),
		calendar:   make(map[int64][]event),
		mcNextFree: make(map[int]int64, len(memControllers)),
		mcService:  mcServiceCycles,
	}
	root := sim.NewRNG(seed)
	s.cores = make([]*core, nodes)
	for i, a := range apps {
		c := &core{node: i, gen: trace.NewGenerator(a, root.Fork(uint64(i)))}
		c.toNextMiss, c.nextL2Miss = c.gen.NextMiss()
		s.cores[i] = c
	}
	return s, nil
}

// Tick implements network.Ticker: advance every core one cycle and move
// due calendar events into outboxes.
func (s *System) Tick(cycle int64) {
	s.cycle = cycle
	for _, ev := range s.calendar[cycle] {
		if ev.node < 0 {
			id, _ := untag(ev.spec.Tag)
			s.complete(id)
			continue
		}
		s.outbox[ev.node] = append(s.outbox[ev.node], ev.spec)
	}
	delete(s.calendar, cycle)
	for _, c := range s.cores {
		s.tickCore(c)
	}
}

// tickCore retires instructions and issues misses until the cycle's issue
// budget is spent or the MLP window fills.
func (s *System) tickCore(c *core) {
	if c.outstanding >= mlpWindow {
		return // stalled on memory
	}
	budget := issueWidth
	for budget > 0 {
		if c.toNextMiss > budget {
			c.toNextMiss -= budget
			c.retired += budget
			return
		}
		budget -= c.toNextMiss
		c.retired += c.toNextMiss
		s.issueMiss(c)
		c.toNextMiss, c.nextL2Miss = c.gen.NextMiss()
		if c.outstanding >= mlpWindow {
			return
		}
	}
}

// issueMiss starts a memory transaction: request packet to an
// address-interleaved L2 bank.
func (s *System) issueMiss(c *core) {
	id := s.nextID
	s.nextID++
	bank := s.rng.Intn(s.nodes)
	mc := memControllers[s.rng.Intn(len(memControllers))]
	s.txns[id] = &txn{core: c.node, bank: bank, mc: mc, l2Miss: c.nextL2Miss, issued: s.cycle}
	c.outstanding++
	if bank == c.node {
		// Local bank: no network request; schedule the bank response
		// directly after the L2 latency.
		s.bankRespond(id, s.cycle)
		return
	}
	s.outbox[c.node] = append(s.outbox[c.node], network.PacketSpec{
		Dst: bank, Size: reqFlits, Tag: tag(id, phaseReqToBank),
	})
}

// bankRespond handles a request arriving at its L2 bank at the given
// cycle: a hit replies to the core after the bank latency; a miss heads
// to the memory controller.
func (s *System) bankRespond(id uint64, now int64) {
	t := s.txns[id]
	due := now + l2Latency
	if t.l2Miss {
		if t.mc == t.bank {
			s.memRespond(id, due)
			return
		}
		s.schedule(due, t.bank, network.PacketSpec{
			Dst: t.mc, Size: reqFlits, Tag: tag(id, phaseBankToMem),
		})
		return
	}
	s.replyToCore(id, due)
}

// memRespond models the DRAM access — queueing for a free channel slot
// under the MC bandwidth limit, then the access latency — and the reply
// back to the bank.
func (s *System) memRespond(id uint64, now int64) {
	t := s.txns[id]
	start := max(now, s.mcNextFree[t.mc])
	s.mcNextFree[t.mc] = start + s.mcService
	due := start + memLatency
	if t.bank == t.mc {
		s.replyToCore(id, due)
		return
	}
	s.schedule(due, t.mc, network.PacketSpec{
		Dst: t.bank, Size: replyFlits, Tag: tag(id, phaseMemToBank),
	})
}

// replyToCore sends the data reply from the bank to the requesting core,
// or completes immediately for a core-local bank.
func (s *System) replyToCore(id uint64, due int64) {
	t := s.txns[id]
	if t.bank == t.core {
		s.completeAt(id, due)
		return
	}
	s.schedule(due, t.bank, network.PacketSpec{
		Dst: t.core, Size: replyFlits, Tag: tag(id, phaseReplyToCore),
	})
}

// completeAt finishes a transaction at the given cycle (possibly in the
// future for purely local transactions).
func (s *System) completeAt(id uint64, due int64) {
	if due <= s.cycle {
		s.complete(id)
		return
	}
	s.schedule(due, -1, network.PacketSpec{Tag: tag(id, phaseReplyToCore)})
}

func (s *System) complete(id uint64) {
	t, ok := s.txns[id]
	if !ok {
		panic(fmt.Sprintf("manycore: completing unknown txn %d", id))
	}
	s.cores[t.core].outstanding--
	s.memLatSum += float64(s.cycle - t.issued)
	s.memLatCount++
	delete(s.txns, id)
}

// AvgMemLatency returns the mean end-to-end memory-transaction latency
// (issue to reply) in cycles over the transactions completed so far.
func (s *System) AvgMemLatency() float64 {
	if s.memLatCount == 0 {
		return 0
	}
	return s.memLatSum / float64(s.memLatCount)
}

// schedule queues a packet emission (node >= 0) or a local completion
// (node < 0) at the due cycle.
func (s *System) schedule(due int64, node int, spec network.PacketSpec) {
	if due <= s.cycle {
		due = s.cycle + 1
	}
	s.calendar[due] = append(s.calendar[due], event{node: node, spec: spec})
}

// Generate implements network.Workload: drain the node's outbox.
func (s *System) Generate(node int, cycle int64, _ *sim.RNG) []network.PacketSpec {
	// Local completions are parked on node -1 via the calendar and
	// handled in Tick; here only real packets remain.
	out := s.outbox[node]
	s.outbox[node] = nil
	return out
}

// Delivered implements network.Workload: advance the transaction state
// machine when its packet arrives.
func (s *System) Delivered(d network.Delivery) {
	id, phase := untag(d.Tag)
	switch phase {
	case phaseReqToBank:
		s.bankRespond(id, d.EjectCycle)
	case phaseBankToMem:
		s.memRespond(id, d.EjectCycle)
	case phaseMemToBank:
		s.replyToCore(id, d.EjectCycle)
	case phaseReplyToCore:
		s.complete(id)
	default:
		panic(fmt.Sprintf("manycore: unknown phase %d", phase))
	}
}

// IPC returns per-core instructions per cycle over the elapsed cycles.
func (s *System) IPC(cycles int64) []float64 {
	out := make([]float64, len(s.cores))
	for i, c := range s.cores {
		out[i] = c.retired / float64(cycles)
	}
	return out
}

// ResetRetired clears per-core instruction counts and latency accounting
// (start of measurement).
func (s *System) ResetRetired() {
	for _, c := range s.cores {
		c.retired = 0
	}
	s.memLatSum, s.memLatCount = 0, 0
}
