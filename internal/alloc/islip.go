package alloc

import "vix/internal/arb"

// ISLIP is the iterative separable allocator of McKeown, cited by the
// paper as the classic approach to the sub-optimal matching problem:
// run request-grant-accept rounds until no more grants can be added (or
// an iteration budget is exhausted). Each extra iteration recovers
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
	iterations int
	grantArbs  []arb.Arbiter // per output, over rows
	acceptArbs []arb.Arbiter // per row, over outputs
	vcPtr      []int32       // per row: round-robin pointer over sub-group VC slots

	// scratch
	rowVec   []bool
	outVec   []bool
	req      [][]bool // req[row][out]: any VC of the row requests out
	cellReqs cellScratch
	rowDone  []bool
	outDone  []bool
	granted  []int    // per row: number of outputs granting to it this iteration
	grantsTo [][]bool // grantsTo[row][out]: out granted to row this iteration
	slots    vcPickScratch
	grants   []Grant
}

// NewISLIP returns an iSLIP allocator running the given number of
// iterations (clamped to at least 1). It panics if cfg is invalid.
func NewISLIP(cfg Config, iterations int) *ISLIP {
	mustValidate(cfg)
	if iterations < 1 {
		iterations = 1
	}
	s := &ISLIP{
		cfg:        cfg,
		iterations: iterations,
		rowVec:     make([]bool, cfg.Rows()),
		outVec:     make([]bool, cfg.Ports),
		req:        make([][]bool, cfg.Rows()),
		cellReqs:   newCellScratch(cfg),
		rowDone:    make([]bool, cfg.Rows()),
		outDone:    make([]bool, cfg.Ports),
		granted:    make([]int, cfg.Rows()),
		grantsTo:   make([][]bool, cfg.Rows()),
		slots:      newVCPickScratch(cfg),
		grants:     make([]Grant, 0, cfg.Ports),
	}
	for i := range s.req {
		s.req[i] = make([]bool, cfg.Ports)
		s.grantsTo[i] = make([]bool, cfg.Ports)
	}
	s.grantArbs = make([]arb.Arbiter, cfg.Ports)
	for i := range s.grantArbs {
		s.grantArbs[i] = arb.NewRoundRobin(cfg.Rows())
	}
	s.acceptArbs = make([]arb.Arbiter, cfg.Rows())
	s.vcPtr = make([]int32, cfg.Rows())
	for i := range s.acceptArbs {
		s.acceptArbs[i] = arb.NewRoundRobin(cfg.Ports)
	}
	return s
}

// Name implements Allocator.
func (s *ISLIP) Name() string { return "islip" }

// Iterations returns the configured iteration count.
func (s *ISLIP) Iterations() int { return s.iterations }

// Reset implements Allocator.
func (s *ISLIP) Reset() {
	for _, a := range s.grantArbs {
		a.Reset()
	}
	for _, a := range s.acceptArbs {
		a.Reset()
	}
	for i := range s.vcPtr {
		s.vcPtr[i] = 0
	}
}

// Allocate implements Allocator. The returned slice is scratch, valid
// until the next Allocate or Reset call.
func (s *ISLIP) Allocate(rs *RequestSet) []Grant {
	rows, outs := s.cfg.Rows(), s.cfg.Ports
	// req[row][out] true if any VC of the row requests out; the cell
	// scratch holds the request indices per (row, out) for VC selection.
	for i := range s.req {
		for j := range s.req[i] {
			s.req[i][j] = false
		}
	}
	s.cellReqs.clear()
	for idx, r := range rs.Requests {
		row := s.cfg.Row(r.Port, r.VC)
		s.req[row][r.OutPort] = true
		s.cellReqs.add(row, r.OutPort, idx)
	}

	for i := range s.rowDone {
		s.rowDone[i] = false
	}
	for i := range s.outDone {
		s.outDone[i] = false
	}
	s.grants = s.grants[:0]

	for iter := 0; iter < s.iterations; iter++ {
		// Grant phase: each unmatched output picks one requesting,
		// unmatched row.
		for row := 0; row < rows; row++ {
			s.granted[row] = 0
			for j := range s.grantsTo[row] {
				s.grantsTo[row][j] = false
			}
		}
		any := false
		for out := 0; out < outs; out++ {
			if s.outDone[out] {
				continue
			}
			for row := 0; row < rows; row++ {
				s.rowVec[row] = !s.rowDone[row] && s.req[row][out]
			}
			row := s.grantArbs[out].Arbitrate(s.rowVec)
			if row < 0 {
				continue
			}
			s.grantsTo[row][out] = true
			s.granted[row]++
			any = true
		}
		if !any {
			break
		}
		// Accept phase: each row with offers accepts one output.
		progress := false
		for row := 0; row < rows; row++ {
			if s.rowDone[row] || s.granted[row] == 0 {
				continue
			}
			out := s.acceptArbs[row].Arbitrate(s.grantsTo[row])
			if out < 0 {
				continue
			}
			var idx int
			idx, s.vcPtr[row] = s.slots.pick(rs, s.cellReqs.at(row, out), s.vcPtr[row])
			s.grants = append(s.grants, Grant{Req: idx, OutPort: out, Row: row})
			s.rowDone[row] = true
			s.outDone[out] = true
			progress = true
			// iSLIP pointer discipline: update only on first-iteration
			// accepts so pointers desynchronise.
			if iter == 0 {
				s.grantArbs[out].Ack(row)
				s.acceptArbs[row].Ack(out)
			}
		}
		if !progress {
			break
		}
	}
	return s.grants
}
