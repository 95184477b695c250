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
	cfg      Config
	n        int     // diagonals: max(Rows, Ports)
	rowWords int     // words per row mask
	rowOf    []int32 // per port*VCs+vc: precomputed Config.Row

	prio  int     // rotating priority diagonal
	vcPtr []int32 // per row: round-robin pointer among sub-group VCs requesting the granted output

	// diagRows is all-zero between calls: the sweep drains each diagonal
	// as it passes.
	diagRows []uint64 // per diagonal, rowWords each: rows with an occupied cell on it

	// scratch
	rowBusy  sim.Bitset
	outBusy  sim.Bitset
	cellReqs cellScratch
	slots    vcPickScratch
	grants   []Grant
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
		cfg:      cfg,
		n:        n,
		rowWords: rowWords,
		rowOf:    rowTable(cfg),
		vcPtr:    make([]int32, cfg.Rows()),
		diagRows: make([]uint64, n*rowWords),
		rowBusy:  sim.NewBitset(cfg.Rows()),
		outBusy:  sim.NewBitset(cfg.Ports),
		cellReqs: newCellScratch(cfg),
		slots:    newVCPickScratch(cfg),
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
	// same output, the row's VC pointer chooses among them below; the cell
	// scratch records all of them per (row, out) pair.
	w.cellReqs.clear()
	for idx, r := range rs.Requests {
		row := int(w.rowOf[r.Port*w.cfg.VCs+r.VC])
		w.cellReqs.add(row, r.OutPort, idx)
		diag := row + r.OutPort
		if diag >= w.n {
			diag -= w.n
		}
		w.diagRows[diag*w.rowWords+row>>6] |= 1 << uint(row&63)
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
			// A diagonal meets each row once, so no grant on it can busy
			// a row still to be visited: masking up front is exact.
			for word &^= w.rowBusy[wi]; word != 0; word &= word - 1 {
				i := wi<<6 + bits.TrailingZeros64(word)
				j := diag - i
				if j < 0 {
					j += w.n
				}
				if w.outBusy[j>>6]&(1<<uint(j&63)) != 0 {
					continue
				}
				var idx int
				idx, w.vcPtr[i] = w.slots.pick(rs, w.cellReqs.at(i, j), w.vcPtr[i])
				w.grants = append(w.grants, Grant{Req: idx, OutPort: j, Row: i})
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
