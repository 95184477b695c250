package alloc

import "vix/internal/arb"

// Ideal is the paper's optimal switch allocator: every output port with at
// least one requesting input VC transmits a flit each cycle. It models a
// crossbar with one virtual input per VC (k = v), where the only physical
// constraint left is the output link itself, so per-output arbitration
// alone achieves optimal allocation. Each output uses a round-robin
// arbiter over all P*v input VCs for long-run fairness.
//
// Ideal ignores Config.VirtualInputs: it behaves as if VirtualInputs were
// VCs, and reports crossbar rows accordingly (its grants are validated
// against a per-VC-row geometry only when the configured geometry already
// is per-VC). It is the reference curve of Figures 7 and 12.
type Ideal struct {
	cfg     Config
	outArbs []arb.Arbiter // per output, over Ports*VCs request lines
	reqVec  []bool
	reqIdx  []int
	byOut   [][]int // scratch: request indices grouped by output
	grants  []Grant
}

// NewIdeal returns an ideal allocator for cfg. It panics if cfg is
// invalid.
func NewIdeal(cfg Config) *Ideal {
	mustValidate(cfg)
	n := cfg.Ports * cfg.VCs
	id := &Ideal{
		cfg:    cfg,
		reqVec: make([]bool, n),
		reqIdx: make([]int, n),
		byOut:  make([][]int, cfg.Ports),
		grants: make([]Grant, 0, cfg.Ports),
	}
	id.outArbs = make([]arb.Arbiter, cfg.Ports)
	for i := range id.outArbs {
		id.outArbs[i] = arb.NewRoundRobin(n)
	}
	return id
}

// Name implements Allocator.
func (id *Ideal) Name() string { return "ideal" }

// Reset implements Allocator.
func (id *Ideal) Reset() {
	for _, a := range id.outArbs {
		a.Reset()
	}
}

// Allocate implements Allocator. The returned slice is scratch, valid
// until the next Allocate or Reset call.
func (id *Ideal) Allocate(rs *RequestSet) []Grant {
	// Group requests by output.
	for i := range id.byOut {
		id.byOut[i] = id.byOut[i][:0]
	}
	for idx, r := range rs.Requests {
		id.byOut[r.OutPort] = append(id.byOut[r.OutPort], idx)
	}
	id.grants = id.grants[:0]
	for out, idxs := range id.byOut {
		if len(idxs) == 0 {
			continue
		}
		for i := range id.reqVec {
			id.reqVec[i] = false
			id.reqIdx[i] = -1
		}
		for _, idx := range idxs {
			r := rs.Requests[idx]
			line := r.Port*id.cfg.VCs + r.VC
			id.reqVec[line] = true
			id.reqIdx[line] = idx
		}
		line := id.outArbs[out].Arbitrate(id.reqVec)
		id.outArbs[out].Ack(line)
		req := rs.Requests[id.reqIdx[line]]
		id.grants = append(id.grants, Grant{
			Req:     id.reqIdx[line],
			OutPort: out,
			Row:     rs.Config.Row(req.Port, req.VC),
		})
	}
	return id.grants
}
