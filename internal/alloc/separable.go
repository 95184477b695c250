package alloc

import (
	"math/bits"

	"vix/internal/arb"
	"vix/internal/sim"
)

// SeparableIF is the input-first separable allocator. It allocates in two
// phases: one input arbiter per crossbar row selects a candidate VC among
// the row's sub-group, then one output arbiter per output port selects a
// winning row among the candidates requesting it.
//
// With Config.VirtualInputs = 1 this is the conventional baseline
// allocator (one winner per input port); with VirtualInputs = 2 it is the
// paper's VIX allocator, where two VCs of one port can win in the same
// cycle through different crossbar rows; with VirtualInputs = VCs it
// degenerates to the ideal VIX with per-VC crossbar inputs.
//
// Arbiter pointers follow iSLIP semantics: an input arbiter advances its
// pointer only when its candidate also wins output arbitration, so a VC
// that loses in phase two keeps priority the next cycle.
//
// The arbiters are what the paper draws (Fig. 2): request lines packed
// into words, and a round-robin pick over each (arb.Pick). A row's
// request word is its sub-group's bits of the port's Ready lines, one per
// slot; an output's has one bit per crossbar row. Both are read straight
// off the request set's packed form, so a call costs what its ports and
// requests cost, not Rows x GroupSize.
type SeparableIF struct {
	sub      subgroups
	ports    int
	rowWords int // words per output's row mask

	inPtr  []int32 // per crossbar row: input-arbiter pointer over GroupSize slots
	outPtr []int32 // per output port: output-arbiter pointer over Rows rows

	// These are all-zero between calls: each is drained as it is
	// consumed, so a cycle never sweeps them.
	outMask []uint64   // per output, rowWords each: rows whose candidate requests it
	outOcc  sim.Bitset // outputs whose outMask is non-zero

	candidate []int32 // per row: phase-one winner's request line; valid for rows present in an outMask
	grants    []Grant
}

// NewSeparableIF returns a separable input-first allocator for cfg.
// It panics if cfg is invalid.
func NewSeparableIF(cfg Config) *SeparableIF {
	mustValidate(cfg)
	rowWords := (cfg.Rows() + 63) / 64
	return &SeparableIF{
		sub:       newSubgroups(cfg),
		ports:     cfg.Ports,
		rowWords:  rowWords,
		inPtr:     make([]int32, cfg.Rows()),
		outPtr:    make([]int32, cfg.Ports),
		outMask:   make([]uint64, cfg.Ports*rowWords),
		outOcc:    sim.NewBitset(cfg.Ports),
		candidate: make([]int32, cfg.Rows()),
		grants:    make([]Grant, 0, cfg.Ports),
	}
}

// Name implements Allocator. The name is the registry Kind ("if")
// regardless of geometry; whether the crossbar is a VIX one is carried by
// Config.VirtualInputs, not by the allocator's identity.
func (s *SeparableIF) Name() string { return "if" }

// Reset implements Allocator.
func (s *SeparableIF) Reset() {
	for i := range s.inPtr {
		s.inPtr[i] = 0
	}
	for i := range s.outPtr {
		s.outPtr[i] = 0
	}
}

// Allocate implements Allocator. The returned slice is scratch, valid
// until the next Allocate or Reset call.
func (s *SeparableIF) Allocate(rs *RequestSet) []Grant { return s.allocate(rs.Ready, rs) }

// allocate arbitrates among the requests of rs that ready names — all of
// them, or what packet chaining leaves.
func (s *SeparableIF) allocate(ready []uint64, rs *RequestSet) []Grant {
	s.grants = s.grants[:0]
	n := 0
	for _, w := range ready {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return s.grants
	}
	// A lone request is its own matching — the common case of every run
	// below saturation. Both of its arbiters would pick it whatever their
	// pointers and advance past it, so grant it and move the pointers the
	// same way; the masks are never raised and stay all-zero.
	if n == 1 {
		ivc := 0
		for ready[ivc>>6] == 0 {
			ivc += 64
		}
		ivc += bits.TrailingZeros64(ready[ivc>>6])
		row, slot := s.sub.at(ivc)
		out := int(rs.Out[ivc])
		s.outPtr[out] = int32(arb.Next(row, len(s.inPtr)))
		s.inPtr[row] = int32(arb.Next(slot, s.sub.size))
		s.grants = append(s.grants, Grant{IVC: ivc, OutPort: out, Row: row})
		return s.grants
	}

	// Phase one: each requesting row's input arbiter picks one VC, and the
	// candidate raises its row's line on the requested output's arbiter.
	for p := 0; p < s.ports; p++ {
		lines := portLines(ready, p, s.sub.vcs)
		if lines == 0 {
			continue
		}
		for g := 0; g < s.sub.k; g++ {
			slots := s.sub.slots(lines, g)
			if slots == 0 {
				continue
			}
			row := p*s.sub.k + g
			slot := arb.Pick(slots, int(s.inPtr[row]))
			ivc := p*s.sub.vcs + s.sub.vc(g, slot)
			s.candidate[row] = int32(line(ivc, slot))
			out := int(rs.Out[ivc])
			s.outMask[out*s.rowWords+row>>6] |= 1 << uint(row&63)
			s.outOcc.Set(out)
		}
	}

	// Phase two: each requested output's arbiter picks one row among the
	// candidates requesting it, in output order.
	for wi, w := range s.outOcc {
		if w == 0 {
			continue
		}
		s.outOcc[wi] = 0
		for ; w != 0; w &= w - 1 {
			out := wi<<6 + bits.TrailingZeros64(w)
			mask := s.outMask[out*s.rowWords : (out+1)*s.rowWords]
			row := arb.PickWords(mask, int(s.outPtr[out]))
			for i := range mask {
				mask[i] = 0
			}
			l := int(s.candidate[row])
			s.grants = append(s.grants, Grant{IVC: lineIVC(l), OutPort: out, Row: row})
			// iSLIP pointer update: both arbiters advance only on a grant.
			s.outPtr[out] = int32(arb.Next(row, len(s.inPtr)))
			s.inPtr[row] = int32(arb.Next(lineSlot(l), s.sub.size))
		}
	}
	return s.grants
}

// A line names a phase-one candidate by its input VC and its slot on its
// row's input arbiter, packed as ivc<<6 | slot (a slot is below MaxVCs),
// so neither has to be derived again when it is granted.
func line(ivc, slot int) int { return ivc<<6 | slot }

// lineIVC and lineSlot unpack a line.
func lineIVC(l int) int  { return l >> 6 }
func lineSlot(l int) int { return l & 63 }
