package alloc

import "vix/internal/sim"

// Losses sorts one request set's requests by their fate in a grant set.
// Every ungranted request falls in exactly one class, by what the
// matching left free for it, so Granted + RowTaken + OutputTaken +
// BothFree is the number of requests. The classes need no look inside
// the allocator that drew the grants.
type Losses struct {
	Granted int
	// RowTaken: the request's crossbar row (virtual input) sent another
	// VC — the input-port constraint that k relaxes.
	RowTaken int
	// OutputTaken: the row sent nothing, but the requested output was
	// granted to another row — output contention.
	OutputTaken int
	// BothFree: the row and the output were both left idle — a
	// non-maximal matching, which wavefront and augmenting path rule out.
	BothFree int

	// Mark words, kept across calls so a reused Losses allocates
	// nothing once it has seen the geometry.
	ivcs, rows, outs sim.Bitset
}

// Classify sets l to the fate of every request of rs under grants, a
// legal grant set for rs (Validate). It reads only the request set and
// the grants.
func Classify(rs *RequestSet, grants []Grant, l *Losses) {
	vcs := rs.Config.VCs
	l.ivcs = clearedBits(l.ivcs, rs.Config.Ports*vcs)
	l.rows = clearedBits(l.rows, rs.Config.Rows())
	l.outs = clearedBits(l.outs, rs.Config.Ports)
	for _, g := range grants {
		l.ivcs.Set(g.IVC)
		l.rows.Set(g.Row)
		l.outs.Set(g.OutPort)
	}
	l.Granted, l.RowTaken, l.OutputTaken, l.BothFree = len(grants), 0, 0, 0
	for _, r := range rs.Requests {
		switch {
		case l.ivcs.Has(r.Port*vcs + r.VC):
		case l.rows.Has(rs.Config.Row(r.Port, r.VC)):
			l.RowTaken++
		case l.outs.Has(r.OutPort):
			l.OutputTaken++
		default:
			l.BothFree++
		}
	}
}

// clearedBits returns b resized to n bits and cleared, reusing its words.
func clearedBits(b sim.Bitset, n int) sim.Bitset {
	w := (n + 63) / 64
	if cap(b) < w {
		return make(sim.Bitset, w)
	}
	b = b[:w]
	clear(b)
	return b
}
