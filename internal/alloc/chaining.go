package alloc

// PacketChaining implements the SameInput/anyVC packet-chaining scheme of
// Michelogiannakis et al. (MICRO-44), the comparison point of the paper's
// Figure 10. A connection granted in the previous cycle is preserved in
// the current cycle if any VC of the same input port requests the same
// output port; chained pairs bypass allocation entirely, and the
// underlying separable input-first allocator runs on the remaining
// requests with the chained rows and outputs masked out.
//
// Chaining works by elimination: preserved connections remove requests
// from the matrix, reducing the chance of uncoordinated input/output
// arbiter decisions. VIX instead works by exposure — more conflict-free
// requests reach output arbitration — which is the contrast Figure 10
// quantifies (PC +9% vs VIX +16% over IF on single-flit uniform traffic).
type PacketChaining struct {
	cfg   Config
	inner *SeparableIF

	// prevOut[row] = output port granted to the row last cycle, -1 if none.
	prevOut []int

	// scratch
	chainVC    []arb2 // per row: rotating pick among VCs eligible to chain
	rest       RequestSet
	restIdx    []int // rest position -> index in the outer request set
	rowReqs    rowScratch
	rowChained []bool
	outChained []bool
	grants     []Grant
}

// arb2 is a tiny rotating pointer used for chained-VC selection; a full
// arbiter is unnecessary because the candidate set is already filtered to
// one output port.
type arb2 struct{ ptr int }

func (a *arb2) pick(n int, ok func(i int) bool) int {
	for i := 0; i < n; i++ {
		idx := (a.ptr + i) % n
		if ok(idx) {
			a.ptr = (idx + 1) % n
			return idx
		}
	}
	return -1
}

// NewPacketChaining returns a packet-chaining allocator for cfg. The paper
// evaluates chaining on the baseline crossbar (VirtualInputs = 1), but the
// implementation supports any geometry. It panics if cfg is invalid.
func NewPacketChaining(cfg Config) *PacketChaining {
	mustValidate(cfg)
	p := &PacketChaining{
		cfg:        cfg,
		inner:      NewSeparableIF(cfg),
		prevOut:    make([]int, cfg.Rows()),
		chainVC:    make([]arb2, cfg.Rows()),
		restIdx:    make([]int, 0, cfg.Ports*cfg.VCs),
		rowReqs:    newRowScratch(cfg),
		rowChained: make([]bool, cfg.Rows()),
		outChained: make([]bool, cfg.Ports),
		grants:     make([]Grant, 0, cfg.Ports),
	}
	for i := range p.prevOut {
		p.prevOut[i] = -1
	}
	return p
}

// Name implements Allocator.
func (p *PacketChaining) Name() string { return "pc" }

// Reset implements Allocator.
func (p *PacketChaining) Reset() {
	p.inner.Reset()
	for i := range p.prevOut {
		p.prevOut[i] = -1
	}
	for i := range p.chainVC {
		p.chainVC[i] = arb2{}
	}
}

// Allocate implements Allocator. The returned slice is scratch, valid
// until the next Allocate or Reset call.
func (p *PacketChaining) Allocate(rs *RequestSet) []Grant {
	rows := p.rowReqs.group(rs)
	for i := range p.rowChained {
		p.rowChained[i] = false
	}
	for i := range p.outChained {
		p.outChained[i] = false
	}
	p.grants = p.grants[:0]

	// Phase zero: preserve last cycle's connections where any VC of the
	// row requests the same output (SameInput, anyVC).
	for row, out := range p.prevOut {
		if out < 0 || p.outChained[out] {
			continue
		}
		idxs := rows[row]
		if len(idxs) == 0 {
			continue
		}
		pick := p.chainVC[row].pick(len(idxs), func(i int) bool {
			return rs.Requests[idxs[i]].OutPort == out
		})
		if pick < 0 {
			continue
		}
		p.grants = append(p.grants, Grant{Req: idxs[pick], OutPort: out, Row: row})
		p.rowChained[row] = true
		p.outChained[out] = true
	}

	// Run the separable allocator on the unchained remainder. The inner
	// allocator returns its own scratch; appending copies the grant values
	// out before they can be invalidated. Inner grants index the filtered
	// request set, so restIdx maps them back onto the caller's indices.
	p.rest.Config = rs.Config
	p.rest.Requests = p.rest.Requests[:0]
	p.restIdx = p.restIdx[:0]
	for i, r := range rs.Requests {
		row := p.rowReqs.row(r)
		if p.rowChained[row] || p.outChained[r.OutPort] {
			continue
		}
		p.rest.Requests = append(p.rest.Requests, r)
		p.restIdx = append(p.restIdx, i)
	}
	for _, g := range p.inner.Allocate(&p.rest) {
		g.Req = p.restIdx[g.Req]
		p.grants = append(p.grants, g)
	}

	// Record this cycle's connections for chaining next cycle.
	for i := range p.prevOut {
		p.prevOut[i] = -1
	}
	for _, g := range p.grants {
		p.prevOut[g.Row] = g.OutPort
	}
	return p.grants
}
