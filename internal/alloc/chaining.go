package alloc

import (
	"math/bits"

	"vix/internal/arb"
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
type PacketChaining struct {
	inner *SeparableIF

	// prevOut[row] = output port granted to the row last cycle, -1 if none.
	prevOut []int
	// chainPtr[row] is the rotating pointer choosing among the row's VCs
	// eligible to chain. It counts positions among the slots the row offers
	// this cycle, not slots: the eligible set is already filtered to one
	// output port, so rotation only has to keep one busy VC from starving
	// its neighbours.
	chainPtr []int32

	// scratch
	rest       RequestSet
	restIdx    []int // rest position -> index in the outer request set
	rowChained []bool
	outChained []bool
	grants     []Grant
}

// NewPacketChaining returns a packet-chaining allocator for cfg. The paper
// evaluates chaining on the baseline crossbar (VirtualInputs = 1), but the
// implementation supports any geometry. It panics if cfg is invalid.
func NewPacketChaining(cfg Config) *PacketChaining {
	mustValidate(cfg)
	p := &PacketChaining{
		inner:      NewSeparableIF(cfg),
		prevOut:    make([]int, cfg.Rows()),
		chainPtr:   make([]int32, cfg.Rows()),
		restIdx:    make([]int, 0, cfg.Ports*cfg.VCs),
		rowChained: make([]bool, cfg.Rows()),
		outChained: make([]bool, cfg.Ports),
		grants:     make([]Grant, 0, cfg.Ports),
	}
	for i := range p.prevOut {
		p.prevOut[i] = -1
	}
	return p
}

// Name implements Allocator.
func (p *PacketChaining) Name() string { return "pc" }

// Reset implements Allocator.
func (p *PacketChaining) Reset() {
	p.inner.Reset()
	for i := range p.prevOut {
		p.prevOut[i] = -1
	}
	clear(p.chainPtr)
}

// Allocate implements Allocator. The returned slice is scratch, valid
// until the next Allocate or Reset call.
func (p *PacketChaining) Allocate(rs *RequestSet) []Grant {
	// The row words are the inner allocator's, borrowed: all-zero between
	// its calls, and drained again before it runs on the remainder.
	rows := &p.inner.rows
	rows.raise(rs)
	clear(p.rowChained)
	clear(p.outChained)
	p.grants = p.grants[:0]

	// Phase zero: preserve last cycle's connections where any VC of the
	// row requests the same output (SameInput, anyVC).
	gs := rows.groupSize
	for row, out := range p.prevOut {
		offered := rows.mask[row]
		if out < 0 || p.outChained[out] || offered == 0 {
			continue
		}
		slotReq := rows.req[row*gs : (row+1)*gs]
		var eligible uint64 // bit i: the row's i-th offered slot requests out
		n := 0
		for w := offered; w != 0; w &= w - 1 {
			if rs.Requests[slotReq[bits.TrailingZeros64(w)]].OutPort == out {
				eligible |= 1 << uint(n)
			}
			n++
		}
		if eligible == 0 {
			continue
		}
		pos := arb.Pick(eligible, int(p.chainPtr[row])%n)
		p.chainPtr[row] = int32(arb.Next(pos, n))
		for ; pos > 0; pos-- {
			offered &= offered - 1
		}
		p.grants = append(p.grants, Grant{Req: int(slotReq[bits.TrailingZeros64(offered)]), OutPort: out, Row: row})
		p.rowChained[row] = true
		p.outChained[out] = true
	}
	rows.drain()

	// Run the separable allocator on the unchained remainder. The inner
	// allocator returns its own scratch; appending copies the grant values
	// out before they can be invalidated. Inner grants index the filtered
	// request set, so restIdx maps them back onto the caller's indices.
	p.rest.Config = rs.Config
	p.rest.Requests = p.rest.Requests[:0]
	p.restIdx = p.restIdx[:0]
	for i, r := range rs.Requests {
		row := rows.row(r)
		if p.rowChained[row] || p.outChained[r.OutPort] {
			continue
		}
		p.rest.Requests = append(p.rest.Requests, r)
		p.restIdx = append(p.restIdx, i)
	}
	for _, g := range p.inner.Allocate(&p.rest) {
		g.Req = p.restIdx[g.Req]
		p.grants = append(p.grants, g)
	}

	// Record this cycle's connections for chaining next cycle.
	for i := range p.prevOut {
		p.prevOut[i] = -1
	}
	for _, g := range p.grants {
		p.prevOut[g.Row] = g.OutPort
	}
	return p.grants
}
