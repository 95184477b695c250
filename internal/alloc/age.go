package alloc

import "vix/internal/arb"

// SeparableAge is the separable input-first allocator with oldest-first
// prioritisation — the SPAROFLO-style optimisation the paper's related
// work says "can be easily integrated with VIX". In both phases, the
// request (or candidate) with the largest Age wins; the rotating arbiter
// breaks ties so fairness is preserved when ages are equal.
//
// Oldest-first arbitration bounds worst-case waiting and improves the
// tail of the latency distribution, at the hardware cost of age counters
// and comparators; the ablation benchmarks quantify the trade on top of
// both the baseline and the VIX crossbar.
type SeparableAge struct {
	cfg        Config
	inputArbs  []arb.Arbiter
	outputArbs []arb.Arbiter

	// scratch
	rowReqs    rowScratch
	candidate  []int
	contenders []int
	rowTies    []bool
	slotTies   []bool
	slotToIdx  []int
	grants     []Grant
}

// NewSeparableAge returns an oldest-first separable allocator for cfg.
// It panics if cfg is invalid.
func NewSeparableAge(cfg Config) *SeparableAge {
	mustValidate(cfg)
	s := &SeparableAge{
		cfg:        cfg,
		rowReqs:    newRowScratch(cfg),
		candidate:  make([]int, cfg.Rows()),
		contenders: make([]int, 0, cfg.Rows()),
		rowTies:    make([]bool, cfg.Rows()),
		slotTies:   make([]bool, cfg.GroupSize()),
		slotToIdx:  make([]int, cfg.GroupSize()),
		grants:     make([]Grant, 0, cfg.Ports),
	}
	s.inputArbs = make([]arb.Arbiter, cfg.Rows())
	for i := range s.inputArbs {
		s.inputArbs[i] = arb.NewRoundRobin(cfg.GroupSize())
	}
	s.outputArbs = make([]arb.Arbiter, cfg.Ports)
	for i := range s.outputArbs {
		s.outputArbs[i] = arb.NewRoundRobin(cfg.Rows())
	}
	return s
}

// Name implements Allocator.
func (s *SeparableAge) Name() string { return "if-age" }

// Reset implements Allocator.
func (s *SeparableAge) Reset() {
	for _, a := range s.inputArbs {
		a.Reset()
	}
	for _, a := range s.outputArbs {
		a.Reset()
	}
}

// Allocate implements Allocator. The returned slice is scratch, valid
// until the next Allocate or Reset call.
func (s *SeparableAge) Allocate(rs *RequestSet) []Grant {
	rows := s.rowReqs.group(rs)

	// Phase one: per crossbar row, the oldest request wins; the rotating
	// arbiter decides among equally old ones.
	for row := range s.candidate {
		s.candidate[row] = s.pickOldest(rs, rows[row], s.inputArbs[row])
	}

	// Phase two: per output port, the oldest candidate wins.
	s.grants = s.grants[:0]
	for out := 0; out < s.cfg.Ports; out++ {
		s.contenders = s.contenders[:0]
		for row, idx := range s.candidate {
			if idx >= 0 && rs.Requests[idx].OutPort == out {
				s.contenders = append(s.contenders, row)
			}
		}
		if len(s.contenders) == 0 {
			continue
		}
		rowIdxOf := func(i int) int { return s.candidate[s.contenders[i]] }
		best := 0
		for i := 1; i < len(s.contenders); i++ {
			if rs.Requests[rowIdxOf(i)].Age > rs.Requests[rowIdxOf(best)].Age {
				best = i
			}
		}
		// Tie-break equally old contenders with the output's rotating
		// arbiter for long-run fairness.
		for i := range s.rowTies {
			s.rowTies[i] = false
		}
		anyTie := false
		for i := range s.contenders {
			if rs.Requests[rowIdxOf(i)].Age == rs.Requests[rowIdxOf(best)].Age {
				s.rowTies[s.contenders[i]] = true
				anyTie = true
			}
		}
		row := s.contenders[best]
		if anyTie {
			row = s.outputArbs[out].Arbitrate(s.rowTies)
		}
		req := rs.Requests[s.candidate[row]]
		s.grants = append(s.grants, Grant{Req: s.candidate[row], OutPort: out, Row: row})
		s.outputArbs[out].Ack(row)
		s.inputArbs[row].Ack(s.cfg.Slot(req.VC))
	}
	return s.grants
}

// pickOldest returns the request index with the greatest age among idxs,
// using the arbiter to break ties by VC slot; -1 if idxs is empty.
func (s *SeparableAge) pickOldest(rs *RequestSet, idxs []int, a arb.Arbiter) int {
	if len(idxs) == 0 {
		return -1
	}
	best := idxs[0]
	for _, idx := range idxs[1:] {
		if rs.Requests[idx].Age > rs.Requests[best].Age {
			best = idx
		}
	}
	for i := range s.slotTies {
		s.slotTies[i] = false
		s.slotToIdx[i] = -1
	}
	count := 0
	for _, idx := range idxs {
		if rs.Requests[idx].Age == rs.Requests[best].Age {
			slot := s.cfg.Slot(rs.Requests[idx].VC)
			if s.slotToIdx[slot] < 0 {
				s.slotTies[slot] = true
				s.slotToIdx[slot] = idx
				count++
			}
		}
	}
	if count <= 1 {
		return best
	}
	return s.slotToIdx[a.Arbitrate(s.slotTies)]
}
