package alloc

// A network builds its allocators in one call (NewMany). Their state —
// arbiter pointers, request words, grant buffers — lives in a few flat
// slabs of one pool that all n share, and each built-in allocator is a
// 16-byte view of it: the pool and the instance's index. Instance i's
// state is its segment of every slab, so a router's allocator costs its
// segments and no slice header, struct or size-class rounding of its own.
//
// Scratch is per instance too, not shared by the pool: the sharded
// network tick calls Allocate on different routers at once, so no two
// views may write the same word, and Reset and SkipIdle touch only the
// instance's own segments. A single allocator (New, NewSeparableIF …) is
// a pool of one.

// pool is what every kind's pool holds: the geometry and the grant slab.
type pool struct {
	sub      subgroups
	ports    int
	rows     int
	rowWords int // words per mask over the crossbar rows
	outWords int // words per mask over the outputs

	grants []Grant // per instance, ports each: its Allocate result
}

func newPool(cfg Config, n int) pool {
	return pool{
		sub:      newSubgroups(cfg),
		ports:    cfg.Ports,
		rows:     cfg.Rows(),
		rowWords: (cfg.Rows() + 63) / 64,
		outWords: (cfg.Ports + 63) / 64,
		grants:   make([]Grant, n*cfg.Ports),
	}
}

// grantBuf returns instance i's grant buffer, empty, with room for a
// grant per output: no allocation grants more.
func (p *pool) grantBuf(i int) []Grant {
	at := i * p.ports
	return p.grants[at : at : at+p.ports]
}

// put appends g to grants, an instance's grant buffer, whose capacity no
// call exceeds: unlike append, it has no growth path, whose call would
// make the caller spill its loop state around it.
func put(grants []Grant, g Grant) []Grant {
	grants = grants[:len(grants)+1]
	grants[len(grants)-1] = g
	return grants
}

// seg returns instance i's segment of slab, which holds size elements
// per instance.
func seg[T any](slab []T, i, size int) []T {
	return slab[i*size : (i+1)*size : (i+1)*size]
}

// carve returns the first n words of *w and moves *w past them: a kind
// cuts an instance's word segment into its masks.
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
}](build func(Config, int) []V) func(Config, int) []Allocator {
	return func(cfg Config, n int) []Allocator {
		vs := build(cfg, n)
		as := make([]Allocator, n)
		for i := range vs {
			as[i] = PV(&vs[i])
		}
		return as
	}
}
