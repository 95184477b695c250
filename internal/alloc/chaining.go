package alloc

import (
	"math/bits"

	"vix/internal/arb"
	"vix/internal/sim"
)

// PacketChaining implements the SameInput/anyVC packet-chaining scheme of
// Michelogiannakis et al. (MICRO-44), the comparison point of the paper's
// Figure 10. A connection granted in the previous cycle is preserved in
// the current cycle if any VC of the same input port requests the same
// output port; chained pairs bypass allocation entirely, and the
// underlying separable input-first allocator runs on the remaining
// requests with the chained rows and outputs masked out.
//
// Chaining works by elimination: preserved connections remove requests
// from the matrix, reducing the chance of uncoordinated input/output
// arbiter decisions. VIX instead works by exposure — more conflict-free
// requests reach output arbitration — which is the contrast Figure 10
// quantifies (PC +9% vs VIX +16% over IF on single-flit uniform traffic).
//
// An instance is a view of a chainPool; its inner separable allocator is
// the view of the same index of the pool's ifPool.
type PacketChaining struct {
	p *chainPool
	i int
}

// chainPool holds a pool's PacketChaining state beside the inner
// separable allocators'. A lane's grant buffer is shared with the inner
// allocators: chained pairs go in first, and the inner allocator appends
// its grants after them.
type chainPool struct {
	ifPool
	readyWords int // words of a request set's Ready

	// prevOut is per instance, rows each: the output port granted to the
	// row by the instance's latest call, -1 if none. stamp is per
	// instance: that call's Cycle. Only a call at stamp+1 chains, so a
	// cycle without a call disconnects every row.
	prevOut []int8
	stamp   []int64
	// chainPtr is per instance, rows each: the rotating pointer choosing
	// among the row's VCs eligible to chain. It counts positions among
	// the slots the row offers this cycle, not slots: the eligible set is
	// already filtered to one output port, so rotation only has to keep
	// one busy VC from starving its neighbours.
	chainPtr []int8

	// chain is per lane, chainWords each, scratch: the unchained
	// remainder's Ready words, the chained rows, the chained outputs.
	chain []uint64
}

func (p *chainPool) chainWords() int { return p.readyWords + p.rowWords + p.outWords }

// newPacketChainings returns n views of one pool with lanes lanes. The
// paper evaluates chaining on the baseline crossbar (VirtualInputs = 1),
// but the implementation supports any geometry.
func newPacketChainings(cfg Config, n, lanes int) []PacketChaining {
	p := &chainPool{readyWords: (cfg.Ports*cfg.VCs + 63) / 64}
	p.ifPool.init(cfg, n, lanes)
	p.prevOut = make([]int8, n*p.rows)
	disconnect(p.prevOut)
	p.stamp = make([]int64, n)
	p.chainPtr = make([]int8, n*p.rows)
	p.chain = make([]uint64, lanes*p.chainWords())
	vs := make([]PacketChaining, n)
	for i := range vs {
		vs[i] = PacketChaining{p, i}
	}
	return vs
}

// inner returns the view's separable allocator.
func (c *PacketChaining) inner() SeparableIF { return SeparableIF{&c.p.ifPool, c.i} }

// Name implements Allocator.
func (c *PacketChaining) Name() string { return "pc" }

// Reset implements Allocator.
func (c *PacketChaining) Reset() {
	in := c.inner()
	in.Reset()
	disconnect(seg(c.p.prevOut, c.i, c.p.rows))
	clear(seg(c.p.chainPtr, c.i, c.p.rows))
}

// Allocate implements Allocator. The returned slice is its lane's
// scratch, valid until the lane's next Allocate call.
func (c *PacketChaining) Allocate(rs *RequestSet) []Grant {
	p, l := c.p, c.p.lane(rs)
	sg := p.sub
	prevOut, chainPtr := seg(p.prevOut, c.i, p.rows), seg(p.chainPtr, c.i, p.rows)
	w := seg(p.chain, l, p.chainWords())
	rest, rowChained, outChained := carve(&w, p.readyWords), sim.Bitset(carve(&w, p.rowWords)), sim.Bitset(w)
	clear(rowChained)
	clear(outChained)
	grants := p.grantBuf(l)

	// Phase zero: preserve last cycle's connections where any VC of the
	// row requests the same output (SameInput, anyVC).
	chained := false
	if p.stamp[c.i] != rs.Cycle-1 {
		disconnect(prevOut) // no call last cycle: nothing stayed connected
	}
	for port := 0; port < p.ports; port++ {
		lines := portLines(rs.Ready, port, sg.vcs)
		for g := 0; g < sg.k; g++ {
			row := port*sg.k + g
			out := int(prevOut[row])
			if out < 0 || outChained.Has(out) || lines == 0 {
				continue
			}
			offered := sg.slots(lines, g)
			var eligible uint64 // bit i: the row's i-th offered slot requests out
			n := 0
			for w := offered; w != 0; w &= w - 1 {
				if int(rs.Out[port*sg.vcs+sg.vc(g, bits.TrailingZeros64(w))]) == out {
					eligible |= 1 << uint(n)
				}
				n++
			}
			if eligible == 0 {
				continue
			}
			pos := arb.Pick(eligible, int(chainPtr[row])%n)
			chainPtr[row] = int8(arb.Next(pos, n))
			for ; pos > 0; pos-- {
				offered &= offered - 1
			}
			ivc := port*sg.vcs + sg.vc(g, bits.TrailingZeros64(offered))
			grants = put(grants, Grant{IVC: ivc, OutPort: out, Row: row})
			rowChained.Set(row)
			outChained.Set(out)
			chained = true
		}
	}

	// Run the separable allocator on the unchained remainder: Ready less
	// every VC of a chained row and every VC requesting a chained output.
	// It appends its grants to the chained ones.
	ready := rs.Ready
	if chained {
		ready = rest
		copy(rest, rs.Ready)
		for port := 0; port < p.ports; port++ {
			lines := portLines(rs.Ready, port, sg.vcs)
			for g := 0; lines != 0 && g < sg.k; g++ {
				row := port*sg.k + g
				for w := sg.slots(lines, g); w != 0; w &= w - 1 {
					ivc := port*sg.vcs + sg.vc(g, bits.TrailingZeros64(w))
					if rowChained.Has(row) || outChained.Has(int(rs.Out[ivc])) {
						rest[ivc>>6] &^= 1 << uint(ivc&63)
					}
				}
			}
		}
	}
	in := c.inner()
	grants = in.allocate(ready, rs, grants)

	// Record this cycle's connections for chaining next cycle.
	disconnect(prevOut)
	for _, g := range grants {
		prevOut[g.Row] = int8(g.OutPort)
	}
	p.stamp[c.i] = rs.Cycle
	return grants
}

// disconnect records that no row was granted last cycle.
func disconnect(prevOut []int8) {
	for i := range prevOut {
		prevOut[i] = -1
	}
}
