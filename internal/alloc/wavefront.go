package alloc

import (
	"math/bits"

	"vix/internal/sim"
)

// Wavefront implements the wavefront allocator of Tamir and Chi. It sweeps
// priority diagonals across the row x output request matrix, granting
// every conflict-free (row, output) pair it encounters; cells on the same
// diagonal never share a row or a column, so the sweep is conflict-free by
// construction. The starting diagonal rotates every invocation so that all
// request positions receive top priority equally often.
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
// (row, out) lies on diagonal (row+out) mod n, and a diagonal holds at
// most one cell per row, so one row mask per diagonal names its cells.
// The sweep then walks n masks and the occupied cells on them — in the
// same (diagonal, ascending row) order as probing every (diagonal, row)
// pair would — for O(requests + n) per call.
type Wavefront struct {
	sub      subgroups
	ports    int
	n        int // diagonals: max(Rows, Ports)
	rowWords int // words per row mask

	prio  int     // rotating priority diagonal
	vcPtr []int32 // per row: round-robin pointer among sub-group VCs requesting the granted output

	// diagRows is all-zero between calls: the sweep drains each diagonal
	// as it passes.
	diagRows []uint64 // per diagonal, rowWords each: rows with an occupied cell on it

	// scratch
	rowBusy sim.Bitset
	outBusy sim.Bitset
	cells   cellSlots
	grants  []Grant
}

// NewWavefront returns a wavefront allocator for cfg. It panics if cfg is
// invalid.
func NewWavefront(cfg Config) *Wavefront {
	mustValidate(cfg)
	n := cfg.Rows()
	if cfg.Ports > n {
		n = cfg.Ports
	}
	rowWords := (cfg.Rows() + 63) / 64
	return &Wavefront{
		sub:      newSubgroups(cfg),
		ports:    cfg.Ports,
		n:        n,
		rowWords: rowWords,
		vcPtr:    make([]int32, cfg.Rows()),
		diagRows: make([]uint64, n*rowWords),
		rowBusy:  sim.NewBitset(cfg.Rows()),
		outBusy:  sim.NewBitset(cfg.Ports),
		cells:    newCellSlots(cfg),
		grants:   make([]Grant, 0, cfg.Ports),
	}
}

// Name implements Allocator.
func (w *Wavefront) Name() string { return "wavefront" }

// Reset implements Allocator.
func (w *Wavefront) Reset() {
	w.prio = 0
	for i := range w.vcPtr {
		w.vcPtr[i] = 0
	}
}

// Allocate implements Allocator. The returned slice is scratch, valid
// until the next Allocate or Reset call.
func (w *Wavefront) Allocate(rs *RequestSet) []Grant {
	for i := range w.rowBusy {
		w.rowBusy[i] = 0
	}
	for i := range w.outBusy {
		w.outBusy[i] = 0
	}

	// Populate the request matrix. When several VCs of one row request the
	// same output, the row's VC pointer chooses among them below; the
	// cell's word has a line for each. The sweep lowers every cell it
	// passes.
	sg := w.sub
	for p := 0; p < w.ports; p++ {
		lines := portLines(rs.Ready, p, sg.vcs)
		for g := 0; lines != 0 && g < sg.k; g++ {
			row := p*sg.k + g
			for slots := sg.slots(lines, g); slots != 0; slots &= slots - 1 {
				slot := bits.TrailingZeros64(slots)
				ivc := p*sg.vcs + sg.vc(g, slot)
				out := int(rs.Out[ivc])
				w.cells.add(row, out, slot)
				diag := row + out
				if diag >= w.n {
					diag -= w.n
				}
				w.diagRows[diag*w.rowWords+row>>6] |= 1 << uint(row&63)
			}
		}
	}

	w.grants = w.grants[:0]
	diag := w.prio
	for d := 0; d < w.n; d++ {
		cells := w.diagRows[diag*w.rowWords : (diag+1)*w.rowWords]
		for wi, word := range cells {
			if word == 0 {
				continue
			}
			cells[wi] = 0
			for ; word != 0; word &= word - 1 {
				i := wi<<6 + bits.TrailingZeros64(word)
				j := diag - i
				if j < 0 {
					j += w.n
				}
				slots := w.cells.take(i, j)
				if w.rowBusy.Has(i) || w.outBusy.Has(j) {
					continue
				}
				var slot int
				slot, w.vcPtr[i] = pickSlot(slots, w.vcPtr[i], sg.size)
				w.grants = append(w.grants, Grant{IVC: sg.ivc(i, slot), OutPort: j, Row: i})
				w.rowBusy.Set(i)
				w.outBusy.Set(j)
			}
		}
		if diag++; diag == w.n {
			diag = 0
		}
	}
	if w.prio++; w.prio == w.n {
		w.prio = 0
	}
	return w.grants
}
