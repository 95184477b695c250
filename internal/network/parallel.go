package network

import (
	"fmt"
	"math/bits"

	"vix/internal/router"
	"vix/internal/sim"
	"vix/internal/topology"
)

// This file implements the router phase of Step: every active router is
// ticked (phase A) and its effects are merged into the delay wheels
// (phase B). The two phases are one helper each, and the two schedules —
// fused per router on the stepping goroutine, or phase A fanned out over
// a worker pool when Config.Workers > 1 — only differ in when they call
// them. The determinism argument:
//
//   - Phase A (Router.Advance): within a cycle, a router tick reads and
//     writes only router-local state — input buffers, credit counters,
//     arbiter pointers — and its lane's scratch, because all cross-router
//     traffic travels through the delayed flitQ/credQ/ejectQ wheels, which
//     are only written in phase B and only read at the top of the next
//     Step. Phase A therefore computes, for every router, the same
//     emissions and credits no matter which goroutine runs it or in which
//     order. Its VC allocation asks Records.Head for a head's hop, which
//     reads the packet's record, written only by the stepping goroutine
//     outside the router phase, and the read-only route table. The only Network fields it writes are,
//     under the pooled schedule, the result slots of r's worklist index —
//     worklist entries name distinct routers and Pool.Do hands each
//     segment out once. No flit record and no statistic is written.
//
//   - Lanes: what a tick makes and uses up within the cycle — the
//     allocator's request set, candidates, masks and grants, the
//     router's emission and credit buffers — is kept once per lane
//     (router.Arena, alloc's pool), not per router. The serial schedule
//     ticks every router in lane 0; the pooled one ticks segment si's
//     routers in lane si, so no two goroutines share a lane, and the
//     network has as many lanes as workers. A lane's scratch lasts until
//     its next router ticks, so runActive copies each router's emissions
//     and credits into its worklist index's slots before that.
//
//   - Phase B (mergeRouter, stepping goroutine): routers are merged in
//     ascending index order, so every queue append and credit schedule
//     happens in the same order under every schedule. It also counts the
//     router tick and its datapath activity, and reads whether the router
//     still holds flits (Arena.Busy): no other router's phase A writes
//     r's occupancy, so that read sees r's own tick.
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
// activeScratch is the pooled schedule's per-cycle state: the worklist of
// active router indices, its contiguous split into per-worker segments,
// and per-index result slots. Pool.Do hands each segment to exactly one
// worker; segments partition the worklist and worklist entries name
// distinct routers, so job si owns its slice of index slots and routers
// exclusively. Everything is sized once in initParallel; the per-cycle
// rebuilds of work and seg reuse their backing arrays, and the result
// slots copy into buffers of Ports entries per index, so the steady state
// allocates nothing.
type activeScratch struct {
	work    []int32              // active router indices, ascending
	seg     []int32              // segment si covers work[seg[si]:seg[si+1]]
	ems     [][]router.Emission  // per worklist index: its router's emissions, in emBuf
	creds   [][]router.CreditMsg // per worklist index: its router's freed credits, in credBuf
	emBuf   []router.Emission    // per worklist index, Ports each
	credBuf []router.CreditMsg   // per worklist index, Ports each
	fn      func(int)            // runActive, bound once
}

// lanes returns the router tick's effective worker count for cfg: at
// least one (a Workers of 1 or less ticks serially) and at most one per
// router, so a one-router network gets a one-wide pool. Each worker ticks
// in a lane of its own, so it is the lane count of the network's arena
// and allocator pool too. Above 1, the network parks pool goroutines
// between cycles — owners must call Close when done.
func lanes(cfg *Config) int { return max(1, min(cfg.Workers, cfg.Topology.NumRouters)) }

// initParallel builds the worker pool of the given width and, when it is
// more than one wide, the worklist scratch.
func (n *Network) initParallel(workers int) {
	nr, ports := len(n.routers), n.cfg.Router.Ports
	n.pool = sim.NewPool(workers)
	if workers <= 1 {
		return
	}
	n.act = activeScratch{
		work:    make([]int32, 0, nr),
		seg:     make([]int32, 0, workers+1),
		ems:     make([][]router.Emission, nr),
		creds:   make([][]router.CreditMsg, nr),
		emBuf:   make([]router.Emission, nr*ports),
		credBuf: make([]router.CreditMsg, nr*ports),
	}
	// Built once: handing a fresh method value to Pool.Do every cycle
	// would allocate.
	n.act.fn = n.runActive
}

// mergeRouter is phase B for router r: count its tick, append its
// emissions to the link and ejection wheels, counting each as a buffer
// read and a crossbar traversal (and a link traversal), schedule its
// freed credits back upstream after the credit delay, and clear its
// activity bit if it holds no flits. Activations only target future
// cycles (the delayed wheels), so clearing here never loses one.
func (n *Network) mergeRouter(r int, ems []router.Emission, creds []router.CreditMsg) {
	n.routerTicks++
	conns := n.topo.Conn[r]
	for _, e := range ems {
		switch conn := &conns[e.OutPort]; conn.Kind {
		case topology.Link:
			n.col.FlitSent(true)
			n.flitQ[n.hopSlot] = append(n.flitQ[n.hopSlot], flitDelivery{
				slot: e.Slot(), router: conn.PeerRouter, port: conn.PeerPort, vc: e.VC,
			})
		case topology.Local:
			n.col.FlitSent(false)
			n.ejectQ[n.hopSlot] = append(n.ejectQ[n.hopSlot], ejection{
				slot: e.Slot(), route: int8(e.OutPort), vc: e.VC,
			})
		default:
			panic(fmt.Sprintf("network: emission through unused port %d of router %d", e.OutPort, r))
		}
	}
	for _, cm := range creds {
		conn := &conns[cm.Port]
		n.credQ[n.credSlot] = append(n.credQ[n.credSlot], creditDelivery{
			router: conn.PeerRouter, outPort: conn.PeerPort, vc: cm.VC,
		})
	}
	if !n.arena.Busy(r) {
		n.actR.Clear(r)
	}
}

// tickRouters runs both phases over this cycle's active routers in
// ascending index order. On a one-wide pool the phases are fused per
// router straight off the activity words (iterating copied words is
// exact: see mergeRouter), in lane 0. Otherwise the words become a
// worklist, split into one contiguous segment per worker; phase A runs
// across the pool, segment si in lane si, and phase B follows in
// worklist order on the stepping goroutine.
func (n *Network) tickRouters() {
	if n.pool.Workers() == 1 {
		for wi, w := range n.actR {
			for ; w != 0; w &= w - 1 {
				r := wi<<6 + bits.TrailingZeros64(w)
				ems, creds := n.routers[r].Advance(0, n.cycle)
				n.mergeRouter(r, ems, creds)
			}
		}
		return
	}
	work := n.act.work[:0]
	for wi, w := range n.actR {
		for ; w != 0; w &= w - 1 {
			work = append(work, int32(wi<<6+bits.TrailingZeros64(w)))
		}
	}
	n.act.work = work
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
	for i, r := range work {
		n.mergeRouter(int(r), n.act.ems[i], n.act.creds[i])
	}
}

// runActive is phase A for worklist segment si, in lane si, copying each
// router's results into its worklist index's own slots before the lane's
// next tick reuses its scratch.
func (n *Network) runActive(si int) {
	ports := n.cfg.Router.Ports
	for i := n.act.seg[si]; i < n.act.seg[si+1]; i++ {
		ems, creds := n.routers[n.act.work[i]].Advance(si, n.cycle)
		at := int(i) * ports
		n.act.ems[i] = append(n.act.emBuf[at:at:at+ports], ems...)
		n.act.creds[i] = append(n.act.credBuf[at:at:at+ports], creds...)
	}
}

// Workers returns the effective router-tick worker count.
func (n *Network) Workers() int { return n.pool.Workers() }

// Close releases the router-tick workers parked between cycles. It is a
// no-op for one-worker networks and is idempotent; a closed network may
// even keep stepping (the pool restarts its workers lazily), but callers
// that construct many parallel networks — sweeps, tests — should Close
// each one when done so parked goroutines do not accumulate.
func (n *Network) Close() { n.pool.Close() }
