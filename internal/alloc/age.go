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
// It is a SeparableIF view — one row word per output, the two pointer
// banks, which here only break ties — under its own Allocate.
type SeparableAge struct{ SeparableIF }

// newSeparableAges returns n views of one pool with lanes lanes.
func newSeparableAges(cfg Config, n, lanes int) []SeparableAge {
	p := newIFPool(cfg, n, lanes)
	vs := make([]SeparableAge, n)
	for i := range vs {
		vs[i] = SeparableAge{SeparableIF{p, i}}
	}
	return vs
}

// Name implements Allocator.
func (s *SeparableAge) Name() string { return "if-age" }

// Allocate implements Allocator. The returned slice is its lane's
// scratch, valid until the lane's next Allocate call.
func (s *SeparableAge) Allocate(rs *RequestSet) []Grant {
	pl, l := s.p, s.p.lane(rs)
	sg, rowWords := pl.sub, pl.rowWords
	inPtr, outPtr, candidate := seg(pl.inPtr, s.i, pl.rows), seg(pl.outPtr, s.i, pl.ports), seg(pl.candidate, l, pl.rows)
	outMask, outOcc := pl.laneMasks(l)

	// Phase one: per crossbar row, the oldest request wins; the rotating
	// arbiter decides among equally old ones.
	for p := 0; p < pl.ports; p++ {
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
			slot := arb.Pick(slots[0], int(inPtr[row]))
			ivc := p*sg.vcs + sg.vc(g, slot)
			candidate[row] = int32(line(ivc, slot))
			out := int(rs.Out[ivc])
			outMask[out*rowWords+row>>6] |= 1 << uint(row&63)
			outOcc.Set(out)
		}
	}

	// Phase two: per output port, the oldest candidate wins, equally old
	// ones by the output's rotating arbiter for long-run fairness.
	grants := pl.grantBuf(l)
	for wi, w := range outOcc {
		outOcc[wi] = 0
		for ; w != 0; w &= w - 1 {
			out := wi<<6 + bits.TrailingZeros64(w)
			mask := outMask[out*rowWords : (out+1)*rowWords]
			keepOldest(mask, func(row int) int { return int(rs.Age[lineIVC(int(candidate[row]))]) })
			row := arb.PickWords(mask, int(outPtr[out]))
			clear(mask)
			l := int(candidate[row])
			grants = put(grants, Grant{IVC: lineIVC(l), OutPort: out, Row: row})
			outPtr[out] = int16(arb.Next(row, pl.rows))
			inPtr[row] = int8(arb.Next(lineSlot(l), sg.size))
		}
	}
	return grants
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
