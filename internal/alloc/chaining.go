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
	rest       []uint64 // the unchained remainder's Ready words
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
		rest:       make([]uint64, (cfg.Ports*cfg.VCs+63)/64),
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
	sg := p.inner.sub
	clear(p.rowChained)
	clear(p.outChained)
	p.grants = p.grants[:0]

	// Phase zero: preserve last cycle's connections where any VC of the
	// row requests the same output (SameInput, anyVC).
	chained := false
	for port := 0; port < p.inner.ports; port++ {
		lines := portLines(rs.Ready, port, sg.vcs)
		for g := 0; g < sg.k; g++ {
			row := port*sg.k + g
			out := p.prevOut[row]
			if out < 0 || p.outChained[out] || lines == 0 {
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
			pos := arb.Pick(eligible, int(p.chainPtr[row])%n)
			p.chainPtr[row] = int32(arb.Next(pos, n))
			for ; pos > 0; pos-- {
				offered &= offered - 1
			}
			ivc := port*sg.vcs + sg.vc(g, bits.TrailingZeros64(offered))
			p.grants = append(p.grants, Grant{IVC: ivc, OutPort: out, Row: row})
			p.rowChained[row] = true
			p.outChained[out] = true
			chained = true
		}
	}

	// Run the separable allocator on the unchained remainder: Ready less
	// every VC of a chained row and every VC requesting a chained output.
	// Appending copies its grants out of its scratch.
	rest := rs.Ready
	if chained {
		rest = p.rest
		copy(rest, rs.Ready)
		for port := 0; port < p.inner.ports; port++ {
			lines := portLines(rs.Ready, port, sg.vcs)
			for g := 0; lines != 0 && g < sg.k; g++ {
				row := port*sg.k + g
				for w := sg.slots(lines, g); w != 0; w &= w - 1 {
					ivc := port*sg.vcs + sg.vc(g, bits.TrailingZeros64(w))
					if p.rowChained[row] || p.outChained[rs.Out[ivc]] {
						rest[ivc>>6] &^= 1 << uint(ivc&63)
					}
				}
			}
		}
	}
	p.grants = append(p.grants, p.inner.allocate(rest, rs)...)

	// Record this cycle's connections for chaining next cycle.
	for i := range p.prevOut {
		p.prevOut[i] = -1
	}
	for _, g := range p.grants {
		p.prevOut[g.Row] = g.OutPort
	}
	return p.grants
}
