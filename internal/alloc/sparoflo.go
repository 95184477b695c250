package alloc

import (
	"fmt"
	"math/bits"

	"vix/internal/arb"
	"vix/internal/sim"
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
type Sparoflo struct {
	ports int
	// exposed is how many VC requests per input port are presented to
	// output arbitration (SPAROFLO varies this with load; the model
	// exposes up to two, matching its low/medium-load behaviour).
	exposed   int
	lineWords int // words per output's mask over the Ports*exposed candidate lines
	outWords  int // words per port's mask over the outputs

	inPtr   []int32 // per port, over VCs: picks exposure order
	outPtr  []int32 // per output, over candidate lines (port*exposed+lane)
	portPtr []int32 // per port, over outputs: resolves conflicts

	// All request words are all-zero between calls: rows is drained after
	// exposure, the other two as their arbiters consume them.
	rows     rowSlots   // k = 1: a row is a port, a slot a VC
	lineMask []uint64   // per output, lineWords each: candidate lines requesting it
	outOcc   sim.Bitset // outputs whose lineMask is non-zero
	wins     []uint64   // per port, outWords each: outputs whose arbiter picked one of its VCs
	portOcc  sim.Bitset // ports whose wins is non-zero

	lineReq []int32 // per candidate line: the request exposed there; valid where a lineMask has the bit
	winner  []int32 // per output: the request its arbiter picked; valid where a wins has the bit
	grants  []Grant
}

// sparofloGeometry reports why cfg cannot carry SPAROFLO: it is defined
// on the conventional crossbar, one row per input port.
func sparofloGeometry(cfg Config) error {
	if cfg.VirtualInputs != 1 {
		return fmt.Errorf("alloc: sparoflo is defined on the conventional crossbar (VirtualInputs == 1), got %d", cfg.VirtualInputs)
	}
	return nil
}

// NewSparoflo returns a SPAROFLO-style allocator exposing up to two
// requests per input port. It panics if cfg is invalid or has virtual
// inputs.
func NewSparoflo(cfg Config) *Sparoflo {
	mustValidate(cfg)
	must(sparofloGeometry(cfg))
	exposed := min(2, cfg.VCs)
	lineWords := (cfg.Ports*exposed + 63) / 64
	outWords := (cfg.Ports + 63) / 64
	return &Sparoflo{
		ports:     cfg.Ports,
		exposed:   exposed,
		lineWords: lineWords,
		outWords:  outWords,
		inPtr:     make([]int32, cfg.Ports),
		outPtr:    make([]int32, cfg.Ports),
		portPtr:   make([]int32, cfg.Ports),
		rows:      newRowSlots(cfg),
		lineMask:  make([]uint64, cfg.Ports*lineWords),
		outOcc:    sim.NewBitset(cfg.Ports),
		wins:      make([]uint64, cfg.Ports*outWords),
		portOcc:   sim.NewBitset(cfg.Ports),
		lineReq:   make([]int32, cfg.Ports*exposed),
		winner:    make([]int32, cfg.Ports),
		grants:    make([]Grant, 0, cfg.Ports),
	}
}

// Name implements Allocator.
func (s *Sparoflo) Name() string { return "sparoflo" }

// Reset implements Allocator.
func (s *Sparoflo) Reset() {
	clear(s.inPtr)
	clear(s.outPtr)
	clear(s.portPtr)
}

// Allocate implements Allocator. The returned slice is scratch, valid
// until the next Allocate or Reset call.
func (s *Sparoflo) Allocate(rs *RequestSet) []Grant {
	// Per port, expose up to `exposed` requests in the input arbiter's
	// rotating order across VCs; each raises its line on the requested
	// output's arbiter. Only the first lane's pick moves the pointer, and
	// it does so before the second lane arbitrates.
	s.rows.raise(rs)
	vcs := s.rows.groupSize
	for wi, w := range s.rows.occ {
		for ; w != 0; w &= w - 1 {
			p := wi<<6 + bits.TrailingZeros64(w)
			offered := s.rows.mask[p]
			for lane := 0; lane < s.exposed && offered != 0; lane++ {
				vc := arb.Pick(offered, int(s.inPtr[p]))
				offered &^= 1 << uint(vc)
				if lane == 0 {
					s.inPtr[p] = int32(arb.Next(vc, vcs))
				}
				line := p*s.exposed + lane
				reqIdx := s.rows.req[p*vcs+vc]
				s.lineReq[line] = reqIdx
				out := rs.Requests[reqIdx].OutPort
				s.lineMask[out*s.lineWords+line>>6] |= 1 << uint(line&63)
				s.outOcc.Set(out)
			}
		}
	}
	s.rows.drain()

	// Output arbitration over the exposed candidates.
	for wi, w := range s.outOcc {
		s.outOcc[wi] = 0
		for ; w != 0; w &= w - 1 {
			out := wi<<6 + bits.TrailingZeros64(w)
			mask := s.lineMask[out*s.lineWords : (out+1)*s.lineWords]
			line := arb.PickWords(mask, int(s.outPtr[out]))
			clear(mask)
			s.outPtr[out] = int32(arb.Next(line, s.ports*s.exposed))
			s.winner[out] = s.lineReq[line]
			p := line / s.exposed
			s.wins[p*s.outWords+out>>6] |= 1 << uint(out&63)
			s.portOcc.Set(p)
		}
	}

	// Conflict detection: multiple outputs may have picked VCs of the
	// same input port; only one can use the port's single crossbar
	// input. The port's rotating priority chooses which grant survives.
	s.grants = s.grants[:0]
	for wi, w := range s.portOcc {
		s.portOcc[wi] = 0
		for ; w != 0; w &= w - 1 {
			p := wi<<6 + bits.TrailingZeros64(w)
			won := s.wins[p*s.outWords : (p+1)*s.outWords]
			out := arb.PickWords(won, int(s.portPtr[p]))
			clear(won)
			s.portPtr[p] = int32(arb.Next(out, s.ports))
			s.grants = append(s.grants, Grant{Req: int(s.winner[out]), OutPort: out, Row: p})
		}
	}
	return s.grants
}
