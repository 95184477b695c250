package alloc

import (
	"math/bits"

	"vix/internal/arb"
	"vix/internal/sim"
)

// ISLIP is the iterative separable allocator of McKeown, cited by the
// paper as the classic approach to the sub-optimal matching problem:
// run request-grant-accept rounds until no more grants can be added (or
// islipIterations rounds have run). Each extra iteration recovers
// matches a single-pass separable allocator loses to uncoordinated
// decisions, at the cost of delay — which is exactly the trade the paper
// argues VIX avoids by widening the crossbar instead.
//
// Round structure (output-first iSLIP, per the original):
//
//	grant:  every unmatched output offers a grant to one requesting row
//	        (rotating pointer);
//	accept: every unmatched row accepts one of the outputs granting to it
//	        (rotating pointer); accepted pairs leave the pool.
//
// Pointers advance only on accepted grants and only in the first
// iteration, preserving iSLIP's desynchronisation property.
type ISLIP struct {
	cfg        Config
	iterations int     // islipIterations; tests vary it
	rowWords   int     // words per mask over the crossbar rows
	outWords   int     // words per mask over the outputs
	rowOf      []int32 // per port*VCs+vc: precomputed Config.Row

	grantPtr  []int32 // per output, over rows
	acceptPtr []int32 // per row, over outputs
	vcPtr     []int32 // per row: round-robin pointer over sub-group VC slots

	// All request words but asking are all-zero between calls.
	reqRows  []uint64   // per output, rowWords each: rows with a VC requesting it
	outOcc   sim.Bitset // outputs whose reqRows is non-zero
	freeRows sim.Bitset // requesting rows not yet matched
	outDone  sim.Bitset // outputs matched
	asking   []uint64   // rowWords: the unmatched rows requesting the output being granted
	offers   []uint64   // per row, outWords each: outputs granting to it this iteration
	offered  sim.Bitset // rows whose offers is non-zero
	cellReqs cellScratch
	slots    vcPickScratch
	grants   []Grant
}

// islipIterations is the grant/accept rounds per Allocate call.
const islipIterations = 2

// NewISLIP returns an iSLIP allocator running islipIterations rounds. It
// panics if cfg is invalid.
func NewISLIP(cfg Config) *ISLIP {
	mustValidate(cfg)
	rowWords := (cfg.Rows() + 63) / 64
	outWords := (cfg.Ports + 63) / 64
	return &ISLIP{
		cfg:        cfg,
		iterations: islipIterations,
		rowWords:   rowWords,
		outWords:   outWords,
		rowOf:      rowTable(cfg),
		grantPtr:   make([]int32, cfg.Ports),
		acceptPtr:  make([]int32, cfg.Rows()),
		vcPtr:      make([]int32, cfg.Rows()),
		reqRows:    make([]uint64, cfg.Ports*rowWords),
		outOcc:     sim.NewBitset(cfg.Ports),
		freeRows:   sim.NewBitset(cfg.Rows()),
		outDone:    sim.NewBitset(cfg.Ports),
		asking:     make([]uint64, rowWords),
		offers:     make([]uint64, cfg.Rows()*outWords),
		offered:    sim.NewBitset(cfg.Rows()),
		cellReqs:   newCellScratch(cfg),
		slots:      newVCPickScratch(cfg),
		grants:     make([]Grant, 0, cfg.Ports),
	}
}

// Name implements Allocator.
func (s *ISLIP) Name() string { return "islip" }

// Reset implements Allocator.
func (s *ISLIP) Reset() {
	clear(s.grantPtr)
	clear(s.acceptPtr)
	clear(s.vcPtr)
}

// Allocate implements Allocator. The returned slice is scratch, valid
// until the next Allocate or Reset call.
func (s *ISLIP) Allocate(rs *RequestSet) []Grant {
	// An output's request word has a bit per row with any VC requesting
	// it; the cell scratch holds the request indices per (row, out) for VC
	// selection.
	s.cellReqs.clear()
	for idx, r := range rs.Requests {
		row := int(s.rowOf[r.Port*s.cfg.VCs+r.VC])
		s.reqRows[r.OutPort*s.rowWords+row>>6] |= 1 << uint(row&63)
		s.outOcc.Set(r.OutPort)
		s.freeRows.Set(row)
		s.cellReqs.add(row, r.OutPort, idx)
	}
	s.grants = s.grants[:0]

	for iter := 0; iter < s.iterations; iter++ {
		// Grant phase: each unmatched output picks one requesting,
		// unmatched row.
		any := false
		for wi, w := range s.outOcc {
			for w &^= s.outDone[wi]; w != 0; w &= w - 1 {
				out := wi<<6 + bits.TrailingZeros64(w)
				for i := range s.asking {
					s.asking[i] = s.reqRows[out*s.rowWords+i] & s.freeRows[i]
				}
				row := arb.PickWords(s.asking, int(s.grantPtr[out]))
				if row < 0 {
					continue
				}
				s.offers[row*s.outWords+out>>6] |= 1 << uint(out&63)
				s.offered.Set(row)
				any = true
			}
		}
		if !any {
			break
		}
		// Accept phase: each row with offers accepts one output.
		for wi, w := range s.offered {
			s.offered[wi] = 0
			for ; w != 0; w &= w - 1 {
				row := wi<<6 + bits.TrailingZeros64(w)
				offers := s.offers[row*s.outWords : (row+1)*s.outWords]
				out := arb.PickWords(offers, int(s.acceptPtr[row]))
				clear(offers)
				var idx int
				idx, s.vcPtr[row] = s.slots.pick(rs, s.cellReqs.at(row, out), s.vcPtr[row])
				s.grants = append(s.grants, Grant{Req: idx, OutPort: out, Row: row})
				s.freeRows.Clear(row)
				s.outDone.Set(out)
				// iSLIP pointer discipline: update only on first-iteration
				// accepts so pointers desynchronise.
				if iter == 0 {
					s.grantPtr[out] = int32(arb.Next(row, s.cfg.Rows()))
					s.acceptPtr[row] = int32(arb.Next(out, s.cfg.Ports))
				}
			}
		}
	}

	for wi, w := range s.outOcc {
		s.outOcc[wi] = 0
		for ; w != 0; w &= w - 1 {
			out := wi<<6 + bits.TrailingZeros64(w)
			clear(s.reqRows[out*s.rowWords : (out+1)*s.rowWords])
		}
	}
	clear(s.freeRows)
	clear(s.outDone)
	return s.grants
}
