package alloc

import (
	"math/bits"

	"vix/internal/arb"
)

// Sparoflo approximates the SPAROFLO switch allocator of Kumar et al.
// (ICCD 2007), discussed in the paper's related work: more than one
// request per input port is presented to the output arbiters, but the
// crossbar remains a conventional P x P — only one request per physical
// input port can ultimately be granted. Conflicts where two output
// arbiters select different VCs of the same input port are therefore
// detected *after* output arbitration and resolved by priority, losing
// the extra grants.
//
// This is the paper's sharpest contrast with VIX: both expose more
// requests to the outputs, but without virtual inputs the exposed
// parallelism cannot be cashed in. The expected ordering — IF <=
// SPAROFLO <= VIX — is asserted by the test suite and measurable with
// the ablation benchmarks.
//
// An instance is a view of a sparofloPool: its pointers are its own, the
// candidate lines and request words its lane's.
type Sparoflo struct {
	p *sparofloPool
	i int
}

// sparofloPool holds the state of a pool's Sparoflo views. An input VC is
// below MaxPorts*MaxVCs, so an int16 names it.
type sparofloPool struct {
	pool
	vcs int
	// exposed is how many VC requests per input port are presented to
	// output arbitration (SPAROFLO varies this with load; the model
	// exposes up to two, matching its low/medium-load behaviour).
	exposed   int
	lineWords int // words per output's mask over the Ports*exposed candidate lines

	// Instance i's ports and outputs start at i*ports; lane l's outputs
	// at l*ports, and its lines at l*ports*exposed.
	inPtr   []int8  // per instance, ports each: over VCs, picks exposure order
	outPtr  []int16 // per instance, ports each: over candidate lines (port*exposed+pick)
	portPtr []int8  // per instance, ports each: over outputs, resolves conflicts

	lineReq []int16 // per lane, ports*exposed each: the input VC exposed on a line; valid where a lineMask has the bit
	winner  []int16 // per lane, ports each: the input VC an output's arbiter picked; valid where a wins has the bit

	// words is per lane, wordsPer each: the request words (masks),
	// all-zero between calls, as each is drained as its arbiter consumes
	// it.
	words []uint64
}

func (p *sparofloPool) wordsPer() int {
	return p.ports*p.lineWords + p.outWords + p.ports*p.outWords + p.outWords
}

// masksAt returns where lane l's masks start in words:
//   - lineAt: per output, lineWords each: candidate lines requesting it;
//   - occAt: outWords: outputs whose lineMask is non-zero;
//   - winsAt: per port, outWords each: outputs whose arbiter picked one
//     of its VCs;
//   - portAt: outWords: ports whose wins is non-zero.
func (p *sparofloPool) masksAt(l int) (lineAt, occAt, winsAt, portAt int) {
	lineAt = l * p.wordsPer()
	occAt = lineAt + p.ports*p.lineWords
	winsAt = occAt + p.outWords
	return lineAt, occAt, winsAt, winsAt + p.ports*p.outWords
}

// newSparoflos returns n views of one pool with lanes lanes.
func newSparoflos(cfg Config, n, lanes int) []Sparoflo {
	p := &sparofloPool{pool: newPool(cfg, lanes), vcs: cfg.VCs, exposed: min(2, cfg.VCs)}
	p.lineWords = (p.ports*p.exposed + 63) / 64
	p.inPtr = make([]int8, n*p.ports)
	p.outPtr = make([]int16, n*p.ports)
	p.portPtr = make([]int8, n*p.ports)
	p.lineReq = make([]int16, lanes*p.ports*p.exposed)
	p.winner = make([]int16, lanes*p.ports)
	p.words = make([]uint64, lanes*p.wordsPer())
	vs := make([]Sparoflo, n)
	for i := range vs {
		vs[i] = Sparoflo{p, i}
	}
	return vs
}

// Name implements Allocator.
func (s *Sparoflo) Name() string { return "sparoflo" }

// Reset implements Allocator.
func (s *Sparoflo) Reset() {
	p := s.p
	clear(seg(p.inPtr, s.i, p.ports))
	clear(seg(p.outPtr, s.i, p.ports))
	clear(seg(p.portPtr, s.i, p.ports))
}

// Allocate implements Allocator. The returned slice is its lane's
// scratch, valid until the lane's next Allocate call.
func (s *Sparoflo) Allocate(rs *RequestSet) []Grant {
	// The call reaches the instance's pointers and its lane's scratch
	// through the pool at offsets, so its loops keep few values live.
	p, l := s.p, s.p.lane(rs)
	at := s.i * p.ports   // the instance's first port and output
	laneAt := l * p.ports // the lane's first output
	lineAt, occAt, winsAt, portAt := p.masksAt(l)
	// Per port, expose up to `exposed` requests in the input arbiter's
	// rotating order across VCs; each raises its line on the requested
	// output's arbiter. Only the first pick moves the pointer, and it
	// does so before the second one arbitrates. On the conventional
	// crossbar a port's request lines are its row's slots.
	for port := 0; port < p.ports; port++ {
		offered := portLines(rs.Ready, port, p.vcs)
		for pick := 0; pick < p.exposed && offered != 0; pick++ {
			vc := arb.Pick(offered, int(p.inPtr[at+port]))
			offered &^= 1 << uint(vc)
			if pick == 0 {
				p.inPtr[at+port] = int8(arb.Next(vc, p.vcs))
			}
			line := port*p.exposed + pick
			ivc := port*p.vcs + vc
			p.lineReq[laneAt*p.exposed+line] = int16(ivc)
			out := int(rs.Out[ivc])
			p.words[lineAt+out*p.lineWords+line>>6] |= 1 << uint(line&63)
			p.words[occAt+out>>6] |= 1 << uint(out&63)
		}
	}

	// Output arbitration over the exposed candidates.
	for wi := 0; wi < p.outWords; wi++ {
		w := p.words[occAt+wi]
		p.words[occAt+wi] = 0
		for ; w != 0; w &= w - 1 {
			out := wi<<6 + bits.TrailingZeros64(w)
			mask := p.words[lineAt+out*p.lineWords : lineAt+(out+1)*p.lineWords]
			line := arb.PickWords(mask, int(p.outPtr[at+out]))
			clear(mask)
			p.outPtr[at+out] = int16(arb.Next(line, p.ports*p.exposed))
			p.winner[laneAt+out] = p.lineReq[laneAt*p.exposed+line]
			port := line / p.exposed
			p.words[winsAt+port*p.outWords+out>>6] |= 1 << uint(out&63)
			p.words[portAt+port>>6] |= 1 << uint(port&63)
		}
	}

	// Conflict detection: multiple outputs may have picked VCs of the
	// same input port; only one can use the port's single crossbar
	// input. The port's rotating priority chooses which grant survives.
	grants := p.grantBuf(l)
	for wi := 0; wi < p.outWords; wi++ {
		w := p.words[portAt+wi]
		p.words[portAt+wi] = 0
		for ; w != 0; w &= w - 1 {
			port := wi<<6 + bits.TrailingZeros64(w)
			won := p.words[winsAt+port*p.outWords : winsAt+(port+1)*p.outWords]
			out := arb.PickWords(won, int(p.portPtr[at+port]))
			clear(won)
			p.portPtr[at+port] = int8(arb.Next(out, p.ports))
			grants = put(grants, Grant{IVC: int(p.winner[laneAt+out]), OutPort: out, Row: port})
		}
	}
	return grants
}
