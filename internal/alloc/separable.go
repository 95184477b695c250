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
// request word has one bit per sub-group slot, an output's has one bit
// per crossbar row; both are built straight from the request list, so a
// call costs what its requests cost, not Rows x GroupSize.
type SeparableIF struct {
	rows     rowSlots // the input arbiters' request lines
	rowWords int      // words per output's row mask

	inPtr  []int32 // per crossbar row: input-arbiter pointer over GroupSize slots
	outPtr []int32 // per output port: output-arbiter pointer over Rows rows

	// Like the row words, these are all-zero between calls: each is
	// drained as it is consumed, so a cycle never sweeps them.
	outMask []uint64   // per output, rowWords each: rows whose candidate requests it
	outOcc  sim.Bitset // outputs whose outMask is non-zero

	candidate []int32 // per row: phase-one winner; valid for rows present in an outMask
	grants    []Grant
}

// NewSeparableIF returns a separable input-first allocator for cfg.
// It panics if cfg is invalid.
func NewSeparableIF(cfg Config) *SeparableIF {
	mustValidate(cfg)
	rowWords := (cfg.Rows() + 63) / 64
	return &SeparableIF{
		rows:      newRowSlots(cfg),
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
func (s *SeparableIF) Allocate(rs *RequestSet) []Grant {
	// A lone request is its own matching — the common case of every run
	// below saturation. Both of its arbiters would pick it whatever their
	// pointers and advance past it, so grant it and move the pointers the
	// same way; the masks are never raised and stay all-zero.
	if len(rs.Requests) == 1 {
		r := rs.Requests[0]
		row := s.rows.row(r)
		s.outPtr[r.OutPort] = int32(arb.Next(row, len(s.inPtr)))
		s.inPtr[row] = int32(arb.Next(int(s.rows.slotOf[r.VC]), s.rows.groupSize))
		s.grants = append(s.grants[:0], Grant{Req: 0, OutPort: r.OutPort, Row: row})
		return s.grants
	}

	s.rows.raise(rs)

	// Phase one: each occupied row's input arbiter picks one VC, and the
	// candidate raises its row's line on the requested output's arbiter.
	for wi, w := range s.rows.occ {
		if w == 0 {
			continue
		}
		s.rows.occ[wi] = 0
		for ; w != 0; w &= w - 1 {
			row := wi<<6 + bits.TrailingZeros64(w)
			slot := arb.Pick(s.rows.mask[row], int(s.inPtr[row]))
			s.rows.mask[row] = 0
			reqIdx := s.rows.req[row*s.rows.groupSize+slot]
			s.candidate[row] = reqIdx
			out := rs.Requests[reqIdx].OutPort
			s.outMask[out*s.rowWords+row>>6] |= 1 << uint(row&63)
			s.outOcc.Set(out)
		}
	}

	// Phase two: each requested output's arbiter picks one row among the
	// candidates requesting it, in output order.
	s.grants = s.grants[:0]
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
			reqIdx := int(s.candidate[row])
			s.grants = append(s.grants, Grant{Req: reqIdx, OutPort: out, Row: row})
			// iSLIP pointer update: both arbiters advance only on a grant.
			s.outPtr[out] = int32(arb.Next(row, len(s.inPtr)))
			s.inPtr[row] = int32(arb.Next(int(s.rows.slotOf[rs.Requests[reqIdx].VC]), s.rows.groupSize))
		}
	}
	return s.grants
}
