package alloc

import (
	"math/bits"

	"vix/internal/arb"
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
//
// An instance is a view of an islipPool: its pointers are its own, the
// request words and cells its lane's.
type ISLIP struct {
	p *islipPool
	i int
}

// islipPool holds the state of a pool's ISLIP views. Instance i's rows
// start at pool row i*rows, and its outputs at i*ports; lane l's matrix
// rows start at l*rows.
type islipPool struct {
	pool
	iterations int // islipIterations; tests vary it

	grantPtr  []int16 // per instance, ports each: over rows
	acceptPtr []int8  // per pool row: over outputs
	vcPtr     []int8  // per pool row: round-robin pointer over sub-group VC slots

	// words is per lane, wordsPer each: the request words (masks), all
	// but asking all-zero between calls.
	words []uint64
	cells cellSlots // all-zero between calls
}

func (p *islipPool) wordsPer() int {
	return p.ports*p.rowWords + p.outWords + p.rowWords + p.outWords + p.rowWords + p.rows*p.outWords + p.rowWords
}

// masksAt returns where lane l's masks start in words:
//   - reqAt: per output, rowWords each: rows with a VC requesting it;
//   - occAt: outWords: outputs whose request word is non-zero;
//   - freeAt: rowWords: requesting rows not yet matched;
//   - doneAt: outWords: outputs matched;
//   - askAt: rowWords: the unmatched rows requesting the output being
//     granted (the one mask not drained between calls);
//   - offersAt: per row, outWords each: outputs granting to it this
//     iteration;
//   - offeredAt: rowWords: rows whose offers is non-zero.
func (p *islipPool) masksAt(l int) (reqAt, occAt, freeAt, doneAt, askAt, offersAt, offeredAt int) {
	reqAt = l * p.wordsPer()
	occAt = reqAt + p.ports*p.rowWords
	freeAt = occAt + p.outWords
	doneAt = freeAt + p.rowWords
	askAt = doneAt + p.outWords
	offersAt = askAt + p.rowWords
	return reqAt, occAt, freeAt, doneAt, askAt, offersAt, offersAt + p.rows*p.outWords
}

// islipIterations is the grant/accept rounds per Allocate call.
const islipIterations = 2

// newISLIPs returns n views of one pool with lanes lanes.
func newISLIPs(cfg Config, n, lanes int) []ISLIP {
	p := &islipPool{pool: newPool(cfg, lanes), iterations: islipIterations}
	p.grantPtr = make([]int16, n*p.ports)
	p.acceptPtr = make([]int8, n*p.rows)
	p.vcPtr = make([]int8, n*p.rows)
	p.words = make([]uint64, lanes*p.wordsPer())
	p.cells = newCellSlots(lanes*p.rows, p.ports)
	vs := make([]ISLIP, n)
	for i := range vs {
		vs[i] = ISLIP{p, i}
	}
	return vs
}

// Name implements Allocator.
func (s *ISLIP) Name() string { return "islip" }

// Reset implements Allocator.
func (s *ISLIP) Reset() {
	p := s.p
	clear(seg(p.grantPtr, s.i, p.ports))
	clear(seg(p.acceptPtr, s.i, p.rows))
	clear(seg(p.vcPtr, s.i, p.rows))
}

// Allocate implements Allocator. The returned slice is its lane's
// scratch, valid until the lane's next Allocate call.
func (s *ISLIP) Allocate(rs *RequestSet) []Grant {
	// An output's request word has a bit per row with any VC requesting
	// it; the cell words hold the requesting slots per (row, out) for VC
	// selection, and are lowered with the output words at the end. The
	// call reaches the instance's pointers and its lane's scratch
	// through the pool at offsets, so its loops keep few values live.
	p, l := s.p, s.p.lane(rs)
	at, outAt := s.i*p.rows, s.i*p.ports // the instance's first pool row and output
	cellAt := l * p.rows                 // the lane's first matrix row
	reqAt, occAt, freeAt, doneAt, askAt, offersAt, offeredAt := p.masksAt(l)
	sg, rowWords, outWords := &p.sub, p.rowWords, p.outWords
	for port := 0; port < p.ports; port++ {
		lines := portLines(rs.Ready, port, sg.vcs)
		for g := 0; lines != 0 && g < sg.k; g++ {
			row := port*sg.k + g
			for slots := sg.slots(lines, g); slots != 0; slots &= slots - 1 {
				slot := bits.TrailingZeros64(slots)
				out := int(rs.Out[port*sg.vcs+sg.vc(g, slot)])
				p.words[reqAt+out*rowWords+row>>6] |= 1 << uint(row&63)
				p.words[occAt+out>>6] |= 1 << uint(out&63)
				p.words[freeAt+row>>6] |= 1 << uint(row&63)
				p.cells.add(cellAt+row, out, slot)
			}
		}
	}
	grants := p.grantBuf(l)

	for iter := 0; iter < p.iterations; iter++ {
		// Grant phase: each unmatched output picks one requesting,
		// unmatched row.
		any := false
		for wi := 0; wi < outWords; wi++ {
			for w := p.words[occAt+wi] &^ p.words[doneAt+wi]; w != 0; w &= w - 1 {
				out := wi<<6 + bits.TrailingZeros64(w)
				for k := 0; k < rowWords; k++ {
					p.words[askAt+k] = p.words[reqAt+out*rowWords+k] & p.words[freeAt+k]
				}
				row := arb.PickWords(p.words[askAt:askAt+rowWords], int(p.grantPtr[outAt+out]))
				if row < 0 {
					continue
				}
				p.words[offersAt+row*outWords+out>>6] |= 1 << uint(out&63)
				p.words[offeredAt+row>>6] |= 1 << uint(row&63)
				any = true
			}
		}
		if !any {
			break
		}
		// Accept phase: each row with offers accepts one output.
		for wi := 0; wi < rowWords; wi++ {
			w := p.words[offeredAt+wi]
			p.words[offeredAt+wi] = 0
			for ; w != 0; w &= w - 1 {
				row := wi<<6 + bits.TrailingZeros64(w)
				offers := p.words[offersAt+row*outWords : offersAt+(row+1)*outWords]
				out := arb.PickWords(offers, int(p.acceptPtr[at+row]))
				clear(offers)
				var slot int
				vcPtr := &p.vcPtr[at+row]
				slot, *vcPtr = pickSlot(p.cells.at(cellAt+row, out), *vcPtr, sg.size)
				grants = put(grants, Grant{IVC: sg.ivc(row, slot), OutPort: out, Row: row})
				p.words[freeAt+row>>6] &^= 1 << uint(row&63)
				p.words[doneAt+out>>6] |= 1 << uint(out&63)
				// iSLIP pointer discipline: update only on first-iteration
				// accepts so pointers desynchronise.
				if iter == 0 {
					p.grantPtr[outAt+out] = int16(arb.Next(row, p.rows))
					p.acceptPtr[at+row] = int8(arb.Next(out, p.ports))
				}
			}
		}
	}

	for wi := 0; wi < outWords; wi++ {
		w := p.words[occAt+wi]
		p.words[occAt+wi] = 0
		for ; w != 0; w &= w - 1 {
			out := wi<<6 + bits.TrailingZeros64(w)
			rows := p.words[reqAt+out*rowWords : reqAt+(out+1)*rowWords]
			for ri, r := range rows {
				for ; r != 0; r &= r - 1 {
					p.cells.take(cellAt+ri<<6+bits.TrailingZeros64(r), out)
				}
			}
			clear(rows)
		}
	}
	clear(p.words[freeAt : freeAt+rowWords])
	clear(p.words[doneAt : doneAt+outWords])
	return grants
}
