package network

import (
	"fmt"
	"slices"
	"testing"

	"vix/internal/alloc"
	"vix/internal/router"
	"vix/internal/routing"
	"vix/internal/topology"
)

// checker holds a network to the invariants that hold at every cycle
// boundary, whatever the topology, allocator, partition or load. The
// tests that run a network under it state no checks of their own beyond
// what their workload or statistics add. Its rows:
//
//   - Flit conservation: the flits in flight are the flits in router
//     buffers plus those on the link and ejection wheels. Counting the
//     buffers calls Router.Occupancy, which also holds every buffered
//     slot to its packet's record and the router's masks to its arrays.
//   - Credit loop: for each link and VC, the upstream router's credits,
//     the downstream buffer's flits, the flits on the link wheel bound
//     for that buffer and the credits on the return wheel bound for the
//     upstream output sum to the buffer depth.
//   - Dateline: every flit on the link wheel rides a VC in the half of
//     the VCs its hop's dateline class admits, Step(upstream, dst).Class
//     on the route table: the lower half for class 0, the upper for
//     class 1, any VC for a hop of no class (every hop off the torus).
//   - Record liveness: the live packet records are the heads injected
//     less the tails ejected, and no more than the flits in flight.
//   - Ejection order (checked in OnEject): each packet's flits eject once
//     each, head to tail in Seq order, each flit's type its Seq's; every
//     flit has made its DOR path's hops and leaves through its node's
//     local port on VC 0. Packets to one node may interleave: the sink
//     takes any flit switch allocation grants it. The row counts each
//     terminal's open packets — a head has ejected and its tail has not
//     — and keeps the most seen at once (maxOpen); nothing bounds it yet
//     (TestEjectionInterleavesPastTheVCs).
//   - Drain (drain): a drained network holds no live record and has
//     every credit back.
//
// It also keeps totals the drained-run identities read: flits, tails, Σ
// hops and Σ latency over the flits ejected, and Σ of the flits in
// flight or queued at sources over the cycles checked.
type checker struct {
	n    *Network
	tab  *routing.Table
	next map[uint64]int // per packet part-ejected: the Seq of its next flit
	err  error          // the first ejection fault

	flits, tails, hops, latency, flitCycles int64

	open    []int // per terminal: packets whose head has ejected and tail has not
	maxOpen int   // the most open at one terminal at once

	// Scratch per (router, port, vc): the flits on the link wheel bound
	// for that input, the credits on the return wheel bound for that
	// output.
	onLink, onWire []int
}

// newChecked builds a network from cfg under a checker, which wraps
// cfg.OnEject, and closes the network when the test ends.
func newChecked(t testing.TB, cfg Config) *checker {
	t.Helper()
	c := &checker{}
	inner := cfg.OnEject
	cfg.OnEject = func(f *router.Flit) {
		c.eject(f)
		if inner != nil {
			inner(f)
		}
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	links := n.topo.NumRouters * n.topo.Radix * n.cfg.Router.VCs
	c.n, c.tab, c.next = n, routing.Compile(n.topo), map[uint64]int{}
	c.onLink, c.onWire = make([]int, links), make([]int, links)
	c.open = make([]int, n.topo.NumNodes)
	return c
}

// eject is the ejection-order row, run on every flit OnEject sees.
func (c *checker) eject(f *router.Flit) {
	c.flits++
	c.hops += int64(f.Hops)
	c.latency += f.EjectCycle - f.CreateCycle
	next := c.next[f.PacketID]
	if c.err == nil {
		var fault string
		switch hops := dorHops(c.n.topo, c.tab, f.Src, f.Dst); {
		case f.Type != router.PacketFlitType(f.Seq, f.PacketSize):
			fault = fmt.Sprintf("of %d ejected as %v", f.PacketSize, f.Type)
		case f.Seq != next:
			fault = fmt.Sprintf("ejected where flit %d belongs", next)
		case f.Hops != hops:
			fault = fmt.Sprintf("from node %d ejected after %d hops, its DOR path has %d", f.Src, f.Hops, hops)
		case f.Route != c.n.topo.NodePort[f.Dst] || f.VC != 0:
			fault = fmt.Sprintf("ejected through port %d vc %d, want local port %d vc 0", f.Route, f.VC, c.n.topo.NodePort[f.Dst])
		}
		if fault != "" {
			c.err = fmt.Errorf("cycle %d: node %d: flit %d.%d %s", f.EjectCycle, f.Dst, f.PacketID, f.Seq, fault)
		}
	}
	switch f.Type {
	case router.Head:
		c.open[f.Dst]++
		c.maxOpen = max(c.maxOpen, c.open[f.Dst])
	case router.Tail:
		c.open[f.Dst]--
	}
	if c.next[f.PacketID] = next + 1; f.Type.IsTail() {
		c.tails++
		delete(c.next, f.PacketID)
	}
}

// checkInvariants checks every row at the cycle boundary n has just
// reached, and names the cycle just run in any fault it reports.
func (c *checker) checkInvariants() (err error) {
	n := c.n
	cycle := n.cycle - 1
	if c.err != nil {
		return c.err
	}
	defer func() {
		if p := recover(); p != nil { // Occupancy names the router and slot
			err = fmt.Errorf("cycle %d: %v", cycle, p)
		}
	}()
	var buffered, onLinks, ejecting int64
	for _, rt := range n.routers {
		buffered += int64(rt.Occupancy())
	}
	vcs, radix, depth := n.cfg.Router.VCs, n.topo.Radix, n.cfg.Router.BufDepth
	clear(c.onLink)
	clear(c.onWire)
	for i := range n.flitQ {
		for _, d := range n.flitQ[i] {
			c.onLink[(int(d.router)*radix+int(d.port))*vcs+int(d.vc)]++
			up := int(n.topo.Conn[d.router][d.port].PeerRouter)
			dst := int(n.flits.At(d.slot.Flit()).dst)
			if class := c.tab.Step(up, dst).Class; class >= 0 && (class == 0) != (int(d.vc) < vcs/2) {
				return fmt.Errorf("cycle %d: a flit of record %d to node %d left router %d on vc %d, outside dateline class %d's half of %d VCs",
					cycle, d.slot.Flit(), dst, up, d.vc, class, vcs)
			}
		}
		for _, d := range n.credQ[i] {
			c.onWire[(int(d.router)*radix+int(d.outPort))*vcs+int(d.vc)]++
		}
		onLinks += int64(len(n.flitQ[i]))
		ejecting += int64(len(n.ejectQ[i]))
	}
	if held := buffered + onLinks + ejecting; held != n.inFlight {
		return fmt.Errorf("cycle %d: %d flits in flight, but %d buffered + %d on links + %d ejecting = %d",
			cycle, n.inFlight, buffered, onLinks, ejecting, held)
	}
	for u, rt := range n.routers {
		for p, conn := range n.topo.Conn[u] {
			if conn.Kind != topology.Link {
				continue
			}
			peer, peerPort := int(conn.PeerRouter), int(conn.PeerPort)
			down := n.routers[peer]
			for v := 0; v < vcs; v++ {
				credits := rt.Credits(p, v)
				occ := depth - down.BufferSpace(peerPort, v)
				link := c.onLink[(peer*radix+peerPort)*vcs+v]
				wire := c.onWire[(u*radix+p)*vcs+v]
				if credits+occ+link+wire != depth {
					return fmt.Errorf("cycle %d: link %d.%d vc %d: credits %d + occ %d + link %d + wire %d != %d",
						cycle, u, p, v, credits, occ, link, wire, depth)
				}
			}
		}
	}
	heads := int64(n.nextPacketID) // less the packets whose head is still queued
	for i := range n.nis {
		nif := &n.nis[i]
		heads -= int64(nif.backlog())
		if nif.seq > 0 {
			heads++
		}
	}
	if live := int64(n.flits.Live()); live != heads-c.tails || live > n.inFlight {
		return fmt.Errorf("cycle %d: %d live records, %d heads injected, %d tails ejected, %d flits in flight",
			cycle, live, heads, c.tails, n.inFlight)
	}
	c.flitCycles += n.inFlight + n.QueuedAtSources()
	return nil
}

// run advances the network the given cycles with Step, or with
// stepDense, checking after each.
func (c *checker) run(cycles int, dense bool) error {
	for i := 0; i < cycles; i++ {
		c.n.run(1, dense)
		if err := c.checkInvariants(); err != nil {
			return err
		}
	}
	return nil
}

// drain steps the network, checking every cycle, until no flit is in
// flight or queued at a source and no credit is on a return wire, within
// limit cycles. Checked then, the record row leaves no record live and
// the credit-loop row every credit back.
func (c *checker) drain(limit int) error {
	n := c.n
	returning := func(q []creditDelivery) bool { return len(q) > 0 }
	for i := 0; n.InFlight() > 0 || n.QueuedAtSources() > 0 || slices.ContainsFunc(n.credQ, returning); i++ {
		if i == limit {
			return fmt.Errorf("not drained after %d cycles: %d flits in flight, %d queued", limit, n.InFlight(), n.QueuedAtSources())
		}
		if err := c.run(1, false); err != nil {
			return err
		}
	}
	return c.checkInvariants() // adds nothing to flitCycles: nothing is in flight or queued
}

// TestEjectionInterleavesPastTheVCs pins a finding: a head bound for a
// local port takes output VC 0 without holding it, so packets to one
// terminal interleave without limit. On the 4x4 c4 flattened butterfly
// at max injection a terminal has more packets open at once than the
// router has VCs, which an ejection port with v held output VCs would
// forbid. Giving the ejection port its VCs flips this pin.
func TestEjectionInterleavesPastTheVCs(t *testing.T) {
	cfg := meshConfig(topology.NewFBfly(4, 4, 4), alloc.KindSeparableIF, 2, router.PolicyBalanced)
	cfg.MaxInjection, cfg.Seed = true, 1
	c := newChecked(t, cfg)
	if err := c.run(1500, false); err != nil {
		t.Fatal(err)
	}
	t.Logf("at most %d packets open at one terminal, %d VCs", c.maxOpen, cfg.Router.VCs)
	if c.maxOpen <= cfg.Router.VCs {
		t.Errorf("at most %d packets open at one terminal, want more than the %d VCs", c.maxOpen, cfg.Router.VCs)
	}
}
