package network

import (
	"fmt"
	"math/bits"
	"runtime"

	"vix/internal/router"
	"vix/internal/sim"
	"vix/internal/stats"
	"vix/internal/topology"
)

// This file implements the router phase of Step: every active router is
// ticked (phase A) and its effects are merged into the delay wheels
// (phase B). The two phases are one helper each, and the two schedules —
// fused per router on the stepping goroutine, or phase A fanned out over
// a worker pool when Config.Workers > 1 — only differ in when they call
// them. The determinism argument:
//
//   - Phase A (tickRouter): within a cycle, a router tick reads and writes
//     only router-local state — input buffers, credit counters, arbiter
//     pointers — because all cross-router traffic travels through the
//     delayed flitQ/credQ/ejectQ wheels, which are only written in phase B
//     and only read at the top of the next Step. Phase A therefore
//     computes, for every router, the same emissions and credits no matter
//     which goroutine runs it or in which order. It also pre-computes the
//     lookahead routes of link emissions (a pure topology function of the
//     destination the emission carries), writing them into the emissions
//     themselves — that router's scratch — and counts the datapath
//     activity into a caller-private stats.Delta. The only Network
//     fields it writes are per-router-index: lastTick[r], and under the
//     pooled schedule the act slots of r's worklist index — worklist
//     entries name distinct routers and Pool.Do hands each segment out
//     once. No flit record is read or written: the arena is the
//     stepping goroutine's alone.
//
//   - Phase B (mergeRouter, stepping goroutine): routers are merged in
//     ascending index order, so every queue append and credit schedule
//     happens in the same order under every schedule. Integer counter
//     merges are order-independent anyway; the queue appends are what
//     byte-identity actually rests on.
//
// Traffic generation, injection, ejection, and the workload callbacks
// never leave the stepping goroutine: they own the RNG streams and the
// order-sensitive float latency accumulation.
//
// Nothing static checks the argument. TestParallelTickByteIdenticalAcrossWorkers
// and its lockstep siblings run every allocator kind at Workers >= 2: a
// phase-A write to another router's state, or a phase-A read of anything
// phase B orders, fails them deterministically under plain `go test`;
// a phase-A write to shared state they do not compare is a report from
// the same tests under `make race`.
//
// The pooled schedule's scratch holds only slice headers: Router.Advance's
// returned emissions and credits are router-owned scratch valid until
// that router's next Advance, which cannot happen before phase B of this
// cycle completes, so no copying is needed and the steady state allocates
// nothing.

// activeScratch is the pooled schedule's per-cycle state: the worklist of
// active router indices, its contiguous split into per-worker segments,
// and per-index result slots. Pool.Do hands each segment to exactly one
// worker; segments partition the worklist and worklist entries name
// distinct routers, so job si owns its slice of index slots and routers
// exclusively. Everything is sized once in initParallel; the per-cycle
// rebuilds of work and seg reuse their backing arrays, so the steady
// state allocates nothing.
type activeScratch struct {
	work     []int32              // active router indices, ascending
	seg      []int32              // segment si covers work[seg[si]:seg[si+1]]
	ems      [][]router.Emission  // per worklist index: Advance's emission scratch
	creds    [][]router.CreditMsg // per worklist index: Advance's credit scratch
	delta    []stats.Delta        // per segment: phase-A activity counters
	quiesced []bool               // per worklist index: Advance reported quiescence
	fn       func(int)            // runActive, bound once
}

// resolveWorkers maps Config.Workers onto an effective worker count:
// 0 is one worker, negative is GOMAXPROCS, positive is taken as given.
// Any result above 1 makes the network park pool goroutines between
// cycles — owners must call Close when done.
func resolveWorkers(w int) int {
	switch {
	case w == 0:
		return 1
	case w < 0:
		return runtime.GOMAXPROCS(0)
	default:
		return w
	}
}

// initParallel builds the worker pool and, when it is more than one wide,
// the worklist scratch. A one-router network gets a one-wide pool.
func (n *Network) initParallel() {
	workers := resolveWorkers(n.cfg.Workers)
	nr := len(n.routers)
	if workers > nr {
		workers = nr
	}
	n.pool = sim.NewPool(workers)
	if workers <= 1 {
		return
	}
	n.act = activeScratch{
		work:     make([]int32, 0, nr),
		seg:      make([]int32, 0, workers+1),
		ems:      make([][]router.Emission, nr),
		creds:    make([][]router.CreditMsg, nr),
		delta:    make([]stats.Delta, workers),
		quiesced: make([]bool, nr),
	}
	// Built once: handing a fresh method value to Pool.Do every cycle
	// would allocate.
	n.act.fn = n.runActive
}

// tickRouter is phase A for router r: fast-forward it across the idle
// span since it last ticked, tick it, write the lookahead route of each
// link emission into the emission, and count the datapath activity into
// d. The returned slices are the router's own scratch.
func (n *Network) tickRouter(r int, d *stats.Delta) ([]router.Emission, []router.CreditMsg, bool) {
	rt := n.routers[r]
	if skip := n.cycle - n.lastTick[r] - 1; skip > 0 {
		rt.SkipIdle(int(skip))
	}
	n.lastTick[r] = n.cycle
	ems, creds, quiesced := rt.Advance()
	d.BufferReads += int64(len(ems))
	d.XbarTraversals += int64(len(ems))
	conns := n.topo.Conn[r]
	for i := range ems {
		e := &ems[i]
		if conn := &conns[e.OutPort]; conn.Kind == topology.Link {
			d.LinkTraversals++
			e.Route = int8(n.route(n.topo, conn.PeerRouter, int(e.Dst)))
		}
	}
	return ems, creds, quiesced
}

// mergeRouter is phase B for router r: append its emissions to the link
// and ejection wheels, schedule its freed credits back upstream after the
// credit delay, and clear its activity bit if it quiesced. Activations
// only target future cycles (the delayed wheels), so clearing here never
// loses one.
func (n *Network) mergeRouter(r int, ems []router.Emission, creds []router.CreditMsg, quiesced bool) {
	conns := n.topo.Conn[r]
	for _, e := range ems {
		switch conn := &conns[e.OutPort]; conn.Kind {
		case topology.Link:
			n.flitQ[n.hopSlot] = append(n.flitQ[n.hopSlot], flitDelivery{
				slot: e.Slot, router: int32(conn.PeerRouter), port: int8(conn.PeerPort), vc: e.VC,
			})
		case topology.Local:
			n.ejectQ[n.hopSlot] = append(n.ejectQ[n.hopSlot], ejection{
				flit: e.Flit, hops: e.Hops, route: e.Route, vc: e.VC,
			})
		default:
			panic(fmt.Sprintf("network: emission through unused port %d of router %d", e.OutPort, r))
		}
	}
	for _, cm := range creds {
		conn := &conns[cm.Port]
		n.credQ[n.credSlot] = append(n.credQ[n.credSlot], creditDelivery{
			router: int32(conn.PeerRouter), outPort: int8(conn.PeerPort), vc: int8(cm.VC),
		})
	}
	if quiesced {
		n.actR.Clear(r)
	}
}

// tickRouters runs both phases over this cycle's active routers in
// ascending index order. On a one-wide pool the phases are fused per
// router straight off the activity words (iterating copied words is
// exact: see mergeRouter). Otherwise the words become a worklist, split
// into one contiguous segment per worker; phase A runs across the pool
// and phase B follows in worklist order on the stepping goroutine.
func (n *Network) tickRouters() {
	if n.pool.Workers() == 1 {
		var d stats.Delta
		for wi, w := range n.actR {
			for ; w != 0; w &= w - 1 {
				r := wi<<6 + bits.TrailingZeros64(w)
				ems, creds, quiesced := n.tickRouter(r, &d)
				n.mergeRouter(r, ems, creds, quiesced)
				n.routerTicks++
			}
		}
		n.col.Merge(d)
		return
	}
	work := n.act.work[:0]
	for wi, w := range n.actR {
		for ; w != 0; w &= w - 1 {
			work = append(work, int32(wi<<6+bits.TrailingZeros64(w)))
		}
	}
	n.act.work = work
	n.routerTicks += int64(len(work))
	k := n.pool.Workers()
	if k > len(work) {
		k = len(work)
	}
	if k == 0 {
		return
	}
	seg := n.act.seg[:0]
	for i := 0; i <= k; i++ {
		seg = append(seg, int32(len(work)*i/k))
	}
	n.act.seg = seg
	n.pool.Do(k, n.act.fn)
	for si := 0; si < k; si++ {
		n.col.Merge(n.act.delta[si])
	}
	for i, r := range work {
		n.mergeRouter(int(r), n.act.ems[i], n.act.creds[i], n.act.quiesced[i])
	}
}

// runActive is phase A for one worklist segment, keeping each router's
// results in its worklist index's own slots.
func (n *Network) runActive(si int) {
	var d stats.Delta
	for i := n.act.seg[si]; i < n.act.seg[si+1]; i++ {
		n.act.ems[i], n.act.creds[i], n.act.quiesced[i] = n.tickRouter(int(n.act.work[i]), &d)
	}
	n.act.delta[si] = d
}

// Workers returns the effective router-tick worker count.
func (n *Network) Workers() int { return n.pool.Workers() }

// Close releases the router-tick workers parked between cycles. It is a
// no-op for one-worker networks and is idempotent; a closed network may
// even keep stepping (the pool restarts its workers lazily), but callers
// that construct many parallel networks — sweeps, tests — should Close
// each one when done so parked goroutines do not accumulate.
func (n *Network) Close() { n.pool.Close() }
