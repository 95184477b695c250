package alloc

import (
	"math"
	"math/bits"

	"vix/internal/arb"
)

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
//
// It is SeparableIF's state — one row word per output, the two pointer
// banks, which here only break ties — under its own Allocate.
type SeparableAge struct{ *SeparableIF }

// NewSeparableAge returns an oldest-first separable allocator for cfg.
// It panics if cfg is invalid.
func NewSeparableAge(cfg Config) *SeparableAge {
	return &SeparableAge{NewSeparableIF(cfg)}
}

// Name implements Allocator.
func (s *SeparableAge) Name() string { return "if-age" }

// Allocate implements Allocator. The returned slice is scratch, valid
// until the next Allocate or Reset call.
func (s *SeparableAge) Allocate(rs *RequestSet) []Grant {
	sg := s.sub

	// Phase one: per crossbar row, the oldest request wins; the rotating
	// arbiter decides among equally old ones.
	for p := 0; p < s.ports; p++ {
		lines := portLines(rs.Ready, p, sg.vcs)
		if lines == 0 {
			continue
		}
		for g := 0; g < sg.k; g++ {
			slots := [1]uint64{sg.slots(lines, g)}
			if slots[0] == 0 {
				continue
			}
			row := p*sg.k + g
			keepOldest(slots[:], func(slot int) int { return int(rs.Age[p*sg.vcs+sg.vc(g, slot)]) })
			slot := arb.Pick(slots[0], int(s.inPtr[row]))
			ivc := p*sg.vcs + sg.vc(g, slot)
			s.candidate[row] = int32(line(ivc, slot))
			out := int(rs.Out[ivc])
			s.outMask[out*s.rowWords+row>>6] |= 1 << uint(row&63)
			s.outOcc.Set(out)
		}
	}

	// Phase two: per output port, the oldest candidate wins, equally old
	// ones by the output's rotating arbiter for long-run fairness.
	s.grants = s.grants[:0]
	for wi, w := range s.outOcc {
		s.outOcc[wi] = 0
		for ; w != 0; w &= w - 1 {
			out := wi<<6 + bits.TrailingZeros64(w)
			mask := s.outMask[out*s.rowWords : (out+1)*s.rowWords]
			keepOldest(mask, func(row int) int { return int(rs.Age[lineIVC(int(s.candidate[row]))]) })
			row := arb.PickWords(mask, int(s.outPtr[out]))
			clear(mask)
			l := int(s.candidate[row])
			s.grants = append(s.grants, Grant{IVC: lineIVC(l), OutPort: out, Row: row})
			s.outPtr[out] = int32(arb.Next(row, len(s.inPtr)))
			s.inPtr[row] = int32(arb.Next(lineSlot(l), sg.size))
		}
	}
	return s.grants
}

// keepOldest lowers every raised line of req but those whose request has
// the greatest age, so the arbiter that picks next decides only ties.
func keepOldest(req []uint64, age func(line int) int) {
	oldest := math.MinInt
	for wi, w := range req {
		for ; w != 0; w &= w - 1 {
			oldest = max(oldest, age(wi<<6+bits.TrailingZeros64(w)))
		}
	}
	for wi, w := range req {
		for ; w != 0; w &= w - 1 {
			if line := bits.TrailingZeros64(w); age(wi<<6+line) != oldest {
				req[wi] &^= 1 << uint(line)
			}
		}
	}
}
