package alloc

// A network builds its allocators in one call (NewMany). Their state
// lives in a few flat slabs of one pool that all n share, and each
// built-in allocator is a 16-byte view of it: the pool and the
// instance's index. Only what lasts from one cycle to the next — arbiter
// pointers, chaining history — is per instance:
// instance i's is its segment of every such slab, so a router's
// allocator costs its segments and no slice header, struct or size-class
// rounding of its own. Reset touches only those segments.
//
// Everything an Allocate call makes and uses up within the call —
// request words, candidates, cell matrices, grants — is scratch, kept
// once per lane: a goroutine that calls Allocate on routers one after
// another (a tick worker) names its lane in RequestSet.Lane, and calls
// in different lanes may run at once. A call's grants are therefore
// valid until the next Allocate in the same lane, on any instance. A
// pool of one lane reads lane 0 whatever the set names, so a wrapper
// may hand a router's set, lane and all, to a standalone inner
// allocator. A single allocator (New, or NewSeparableIF) is a pool of one
// instance and one lane.

// pool is what every kind's pool holds: the geometry and the grant slab,
// whose length gives the lane count.
type pool struct {
	sub      subgroups
	ports    int
	rows     int
	rowWords int // words per mask over the crossbar rows
	outWords int // words per mask over the outputs

	grants []Grant // per lane, ports each: its latest Allocate result
}

func newPool(cfg Config, lanes int) pool {
	return pool{
		sub:      newSubgroups(cfg),
		ports:    cfg.Ports,
		rows:     cfg.Rows(),
		rowWords: (cfg.Rows() + 63) / 64,
		outWords: (cfg.Ports + 63) / 64,
		grants:   make([]Grant, lanes*cfg.Ports),
	}
}

// lane returns the lane whose scratch a call on rs uses: rs.Lane, or 0 in
// a pool of one lane, which has one grant buffer.
func (p *pool) lane(rs *RequestSet) int {
	if len(p.grants) == p.ports {
		return 0
	}
	return rs.Lane
}

// grantBuf returns lane l's grant buffer, empty, with room for a grant
// per output: no allocation grants more.
func (p *pool) grantBuf(l int) []Grant {
	at := l * p.ports
	return p.grants[at : at : at+p.ports]
}

// put appends g to grants, a lane's grant buffer, whose capacity no call
// exceeds: unlike append, it has no growth path, whose call would make
// the caller spill its loop state around it.
func put(grants []Grant, g Grant) []Grant {
	grants = grants[:len(grants)+1]
	grants[len(grants)-1] = g
	return grants
}

// seg returns segment i of slab, which holds size elements per instance
// (or per lane).
func seg[T any](slab []T, i, size int) []T {
	return slab[i*size : (i+1)*size : (i+1)*size]
}

// carve returns the first n words of *w and moves *w past them: a kind
// cuts a lane's word segment into its masks.
func carve(w *[]uint64, n int) []uint64 {
	s := (*w)[:n:n]
	*w = (*w)[n:]
	return s
}

// many adapts a kind's view constructor to a registry row: the views stay
// in the slab it returns, and the allocators point into it.
func many[V any, PV interface {
	*V
	Allocator
}](build func(cfg Config, n, lanes int) []V) func(cfg Config, n, lanes int) []Allocator {
	return func(cfg Config, n, lanes int) []Allocator {
		vs := build(cfg, n, lanes)
		as := make([]Allocator, n)
		for i := range vs {
			as[i] = PV(&vs[i])
		}
		return as
	}
}
