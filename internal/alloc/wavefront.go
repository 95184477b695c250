package alloc

import "math/bits"

// Wavefront implements the wavefront allocator of Tamir and Chi. It sweeps
// priority diagonals across the row x output request matrix, granting
// every conflict-free (row, output) pair it encounters; cells on the same
// diagonal never share a row or a column, so the sweep is conflict-free by
// construction. The starting diagonal rotates every cycle so that all
// request positions receive top priority equally often: it is diagonal
// RequestSet.Cycle mod n, so it needs no state.
//
// Wavefront achieves a maximal (not maximum) matching: no grant can be
// added without removing another, which is why its allocation efficiency
// exceeds a single-iteration separable allocator. The paper's Table 3
// prices this at 39% higher delay than the separable allocator; the
// timing model in internal/timing reproduces that trade-off.
//
// The matrix generalises to rectangular kP x P crossbars so a wavefront
// allocator can also drive a VIX datapath, although the paper evaluates
// wavefront only on the baseline crossbar.
//
// Occupied cells are bucketed by diagonal as the requests are read: cell
// (row, out) lies on diagonal (row+out) mod n, where n = max(Rows, Ports),
// and a diagonal holds at most one cell per row, so one row mask per
// diagonal names its cells.
// The sweep then walks n masks and the occupied cells on them — in the
// same (diagonal, ascending row) order as probing every (diagonal, row)
// pair would — for O(requests + n) per call.
//
// An instance is a view of a wavefrontPool: its VC pointers are its own,
// the request matrix and sweep masks its lane's.
type Wavefront struct {
	p *wavefrontPool
	i int
}

// wavefrontPool holds the state of a pool's Wavefront views.
type wavefrontPool struct {
	pool

	vcPtr []int8 // per pool row (instance i's rows start at i*rows): round-robin pointer among sub-group VCs requesting the granted output

	// words is per lane, wordsPer each: diagRows (per diagonal,
	// rowWords each: rows with an occupied cell on it; all-zero between
	// calls, as the sweep drains each diagonal it passes), then the
	// rowBusy and outBusy scratch.
	words []uint64
	cells cellSlots // all-zero between calls
}

// diagonals is how many diagonals the request matrix has.
func (p *wavefrontPool) diagonals() int { return max(p.rows, p.ports) }

func (p *wavefrontPool) wordsPer() int { return p.diagonals()*p.rowWords + p.rowWords + p.outWords }

// newWavefronts returns n views of one pool with lanes lanes.
func newWavefronts(cfg Config, n, lanes int) []Wavefront {
	p := &wavefrontPool{pool: newPool(cfg, lanes)}
	p.vcPtr = make([]int8, n*p.rows)
	p.words = make([]uint64, lanes*p.wordsPer())
	p.cells = newCellSlots(lanes*p.rows, p.ports)
	vs := make([]Wavefront, n)
	for i := range vs {
		vs[i] = Wavefront{p, i}
	}
	return vs
}

// Name implements Allocator.
func (w *Wavefront) Name() string { return "wavefront" }

// Reset implements Allocator.
func (w *Wavefront) Reset() {
	clear(seg(w.p.vcPtr, w.i, w.p.rows))
}

// Allocate implements Allocator. The returned slice is its lane's
// scratch, valid until the lane's next Allocate call.
func (w *Wavefront) Allocate(rs *RequestSet) []Grant {
	// The call reaches the instance's pointers and its lane's scratch
	// through the pool at these offsets, so the sweep keeps few values
	// live.
	p, n, l := w.p, w.p.diagonals(), w.p.lane(rs)
	at := w.i * p.rows               // the instance's first pool row
	cellAt := l * p.rows             // the lane's first matrix row
	diagAt := l * p.wordsPer()       // its diagRows, a row mask per diagonal
	rowBusy := diagAt + n*p.rowWords // then its busy rows
	outBusy := rowBusy + p.rowWords  // and its busy outputs
	clear(p.words[rowBusy : outBusy+p.outWords])

	// Populate the request matrix, bucketing the occupied cells by
	// diagonal. When several VCs of one row request the same output, the
	// row's VC pointer chooses among them below; the cell's word has a
	// line for each. The sweep lowers every cell it passes, and stops
	// when no request is left: no diagonal past the last cell can grant.
	sg := &p.sub
	left := 0 // requests on cells the sweep has not passed
	for port := 0; port < p.ports; port++ {
		lines := portLines(rs.Ready, port, sg.vcs)
		for g := 0; lines != 0 && g < sg.k; g++ {
			row := port*sg.k + g
			for slots := sg.slots(lines, g); slots != 0; slots &= slots - 1 {
				slot := bits.TrailingZeros64(slots)
				out := int(rs.Out[port*sg.vcs+sg.vc(g, slot)])
				p.cells.add(cellAt+row, out, slot)
				left++
				diag := row + out
				if diag >= n {
					diag -= n
				}
				p.words[diagAt+diag*p.rowWords+row>>6] |= 1 << uint(row&63)
			}
		}
	}

	grants := p.grantBuf(l)
	diag := int(uint64(rs.Cycle) % uint64(n))
	for left > 0 {
		onDiag := diagAt + diag*p.rowWords
		for wi := 0; wi < p.rowWords; wi++ {
			word := p.words[onDiag+wi]
			if word == 0 {
				continue
			}
			p.words[onDiag+wi] = 0
			for ; word != 0; word &= word - 1 {
				i := wi<<6 + bits.TrailingZeros64(word)
				j := diag - i
				if j < 0 {
					j += n
				}
				slots := p.cells.take(cellAt+i, j)
				left -= bits.OnesCount64(slots)
				rb, ob := &p.words[rowBusy+i>>6], &p.words[outBusy+j>>6]
				if *rb&(1<<uint(i&63)) != 0 || *ob&(1<<uint(j&63)) != 0 {
					continue
				}
				*rb |= 1 << uint(i&63)
				*ob |= 1 << uint(j&63)
				var slot int
				vcPtr := &p.vcPtr[at+i]
				slot, *vcPtr = pickSlot(slots, *vcPtr, sg.size)
				grants = put(grants, Grant{IVC: sg.ivc(i, slot), OutPort: j, Row: i})
			}
		}
		if diag++; diag == n {
			diag = 0
		}
	}
	return grants
}
