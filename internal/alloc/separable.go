package alloc

import (
	"math/bits"
	"strings"

	"vix/internal/arb"
	"vix/internal/sim"
)

// SeparableIF is the input-first separable allocator. It allocates in two
// phases: one input arbiter per crossbar row selects a candidate VC among
// the row's sub-group, then one output arbiter per output port selects a
// winning row among the candidates requesting it.
//
// With Config.VirtualInputs = 1 this is the conventional baseline
// allocator (one winner per input port); with VirtualInputs = 2 it is the
// paper's VIX allocator, where two VCs of one port can win in the same
// cycle through different crossbar rows; with VirtualInputs = VCs it
// degenerates to the ideal VIX with per-VC crossbar inputs.
//
// Arbiter pointers follow iSLIP semantics: an input arbiter advances its
// pointer only when its candidate also wins output arbitration, so a VC
// that loses in phase two keeps priority the next cycle.
//
// The arbiters are what the paper draws (Fig. 2): request lines packed
// into words, and a round-robin pick over each (arb.Pick). A row's
// request word is its sub-group's bits of the port's Ready lines, one per
// slot; an output's has one bit per crossbar row. Both are read straight
// off the request set's packed form, so a call costs what its ports and
// requests cost, not Rows x GroupSize.
//
// An instance is a view of an ifPool (pool.go): its pointers are its
// segments of the pool's slabs, and a call's request words, candidates
// and grants its lane's.
type SeparableIF struct {
	p *ifPool
	i int
}

// ifPool holds the state of a pool's SeparableIF views, and of the Ideal,
// SeparableAge and PacketChaining views that run on them. Pointers are
// as narrow as Config.Validate's bounds allow: a slot is below GroupSize
// <= MaxVCs, a row below Rows <= MaxPorts*MaxVCs.
type ifPool struct {
	pool
	inPtr  []int8  // per instance, rows each: input-arbiter pointer over GroupSize slots
	outPtr []int16 // per instance, ports each: output-arbiter pointer over Rows rows

	// The masks are all-zero between calls: each is drained as it is
	// consumed, so a cycle never sweeps them.
	masks []uint64 // per lane, maskWords each: outMask, then outOcc

	candidate []int32 // per lane, rows each: phase-one winner's line; valid for rows present in an outMask
}

// newIFPool returns a pool of n instances on cfg, with lanes lanes.
func newIFPool(cfg Config, n, lanes int) *ifPool {
	p := new(ifPool)
	p.init(cfg, n, lanes)
	return p
}

func (p *ifPool) init(cfg Config, n, lanes int) {
	p.pool = newPool(cfg, lanes)
	p.inPtr = make([]int8, n*p.rows)
	p.outPtr = make([]int16, n*p.ports)
	p.masks = make([]uint64, lanes*p.maskWords())
	p.candidate = make([]int32, lanes*p.rows)
}

// maskWords is a lane's mask words: a row mask per output, then the
// output set.
func (p *ifPool) maskWords() int { return p.ports*p.rowWords + p.outWords }

// laneMasks returns lane l's mask segment, cut into its row mask per output
// (rows whose candidate requests it) and its output set (outputs whose
// row mask is non-zero).
func (p *ifPool) laneMasks(l int) (outMask []uint64, outOcc sim.Bitset) {
	m := seg(p.masks, l, p.maskWords())
	return carve(&m, p.ports*p.rowWords), m
}

// NewSeparableIF returns New's separable input-first allocator for cfg,
// typed. It panics if cfg is invalid, so that an impossible crossbar
// geometry fails loudly at construction rather than corrupting an
// allocation later.
func NewSeparableIF(cfg Config) *SeparableIF {
	a, err := New(KindSeparableIF, cfg)
	if err != nil {
		panic("alloc: invalid config: " + strings.TrimPrefix(err.Error(), "alloc: "))
	}
	return a.(*SeparableIF)
}

// newSeparableIFs returns n views of one pool with lanes lanes.
func newSeparableIFs(cfg Config, n, lanes int) []SeparableIF {
	p := newIFPool(cfg, n, lanes)
	vs := make([]SeparableIF, n)
	for i := range vs {
		vs[i] = SeparableIF{p, i}
	}
	return vs
}

// Name implements Allocator. The name is the registry Kind ("if")
// regardless of geometry; whether the crossbar is a VIX one is carried by
// Config.VirtualInputs, not by the allocator's identity.
func (s *SeparableIF) Name() string { return "if" }

// Reset implements Allocator.
func (s *SeparableIF) Reset() {
	clear(seg(s.p.inPtr, s.i, s.p.rows))
	clear(seg(s.p.outPtr, s.i, s.p.ports))
}

// Allocate implements Allocator. The returned slice is its lane's
// scratch, valid until the lane's next Allocate call.
func (s *SeparableIF) Allocate(rs *RequestSet) []Grant {
	return s.allocate(rs.Ready, rs, s.p.grantBuf(s.p.lane(rs)))
}

// allocate arbitrates among the requests of rs that ready names — all of
// them, or what packet chaining leaves — and appends its grants to
// grants, in rs's lane.
func (s *SeparableIF) allocate(ready []uint64, rs *RequestSet, grants []Grant) []Grant {
	n := 0
	for _, w := range ready {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return grants
	}
	pl, sub := s.p, &s.p.sub
	// A lone request is its own matching — the common case of every run
	// below saturation. Both of its arbiters would pick it whatever their
	// pointers and advance past it, so grant it and move the pointers the
	// same way; the masks are never raised and stay all-zero.
	if n == 1 {
		ivc := 0
		for ready[ivc>>6] == 0 {
			ivc += 64
		}
		ivc += bits.TrailingZeros64(ready[ivc>>6])
		row, slot := sub.at(ivc)
		out := int(rs.Out[ivc])
		pl.outPtr[s.i*pl.ports+out] = int16(arb.Next(row, pl.rows))
		pl.inPtr[s.i*pl.rows+row] = int8(arb.Next(slot, sub.size))
		return append(grants, Grant{IVC: ivc, OutPort: out, Row: row})
	}
	// The call reaches the instance's pointers and its lane's scratch
	// through the pool at these offsets, so the loops keep few values
	// live.
	rowWords := pl.rowWords
	rowAt, outAt := s.i*pl.rows, s.i*pl.ports // the instance's first row and output
	l := pl.lane(rs)
	candAt := l * pl.rows               // the lane's first candidate
	maskAt := l * pl.maskWords()        // its row mask per output
	occAt := maskAt + pl.ports*rowWords // then its output set

	// Phase one: each requesting row's input arbiter picks one VC, and the
	// candidate raises its row's line on the requested output's arbiter.
	for p := 0; p < pl.ports; p++ {
		lines := portLines(ready, p, sub.vcs)
		if lines == 0 {
			continue
		}
		for g := 0; g < sub.k; g++ {
			slots := sub.slots(lines, g)
			if slots == 0 {
				continue
			}
			row := p*sub.k + g
			slot := arb.Pick(slots, int(pl.inPtr[rowAt+row]))
			ivc := p*sub.vcs + sub.vc(g, slot)
			pl.candidate[candAt+row] = int32(line(ivc, slot))
			out := int(rs.Out[ivc])
			pl.masks[maskAt+out*rowWords+row>>6] |= 1 << uint(row&63)
			pl.masks[occAt+out>>6] |= 1 << uint(out&63)
		}
	}

	// Phase two: each requested output's arbiter picks one row among the
	// candidates requesting it, in output order.
	for wi := 0; wi < pl.outWords; wi++ {
		w := pl.masks[occAt+wi]
		if w == 0 {
			continue
		}
		pl.masks[occAt+wi] = 0
		for ; w != 0; w &= w - 1 {
			out := wi<<6 + bits.TrailingZeros64(w)
			mask := pl.masks[maskAt+out*rowWords : maskAt+(out+1)*rowWords]
			row := arb.PickWords(mask, int(pl.outPtr[outAt+out]))
			clear(mask)
			c := int(pl.candidate[candAt+row])
			grants = put(grants, Grant{IVC: lineIVC(c), OutPort: out, Row: row})
			// iSLIP pointer update: both arbiters advance only on a grant.
			pl.outPtr[outAt+out] = int16(arb.Next(row, pl.rows))
			pl.inPtr[rowAt+row] = int8(arb.Next(lineSlot(c), sub.size))
		}
	}
	return grants
}

// A line names a phase-one candidate by its input VC and its slot on its
// row's input arbiter, packed as ivc<<6 | slot (a slot is below MaxVCs),
// so neither has to be derived again when it is granted.
func line(ivc, slot int) int { return ivc<<6 | slot }

// lineIVC and lineSlot unpack a line.
func lineIVC(l int) int  { return l >> 6 }
func lineSlot(l int) int { return l & 63 }
