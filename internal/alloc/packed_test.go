package alloc

import (
	"fmt"
	"testing"

	"vix/internal/arb"
	"vix/internal/sim"
)

// denseSeparableIF is a test-local reference copy of the input-first
// separable allocator written with dense O(Rows) and O(Ports x Rows)
// scans over []bool request vectors and arb.RoundRobin objects — the
// algorithm as specified, without the packed request words and plain
// pointer arrays the production SeparableIF uses. The differential test
// below runs both in lockstep; any divergence means the mask arbiters
// changed behaviour, not just cost.
type denseSeparableIF struct {
	cfg        Config
	inputArbs  []arb.Arbiter
	outputArbs []arb.Arbiter

	slotReq   []bool
	rowReq    []bool
	candidate []int
	slotToReq []int
	rows      [][]int
	grants    []Grant
}

func newDenseSeparableIF(cfg Config) *denseSeparableIF {
	d := &denseSeparableIF{
		cfg:       cfg,
		slotReq:   make([]bool, cfg.GroupSize()),
		rowReq:    make([]bool, cfg.Rows()),
		candidate: make([]int, cfg.Rows()),
		slotToReq: make([]int, cfg.GroupSize()),
		rows:      make([][]int, cfg.Rows()),
	}
	d.inputArbs = make([]arb.Arbiter, cfg.Rows())
	for i := range d.inputArbs {
		d.inputArbs[i] = arb.NewRoundRobin(cfg.GroupSize())
	}
	d.outputArbs = make([]arb.Arbiter, cfg.Ports)
	for i := range d.outputArbs {
		d.outputArbs[i] = arb.NewRoundRobin(cfg.Rows())
	}
	return d
}

func (d *denseSeparableIF) allocate(rs *RequestSet) []Grant {
	for i := range d.rows {
		d.rows[i] = d.rows[i][:0]
	}
	for i, r := range rs.Requests {
		row := rs.Config.Row(r.Port, r.VC)
		d.rows[row] = append(d.rows[row], i)
	}

	for row := range d.candidate {
		d.candidate[row] = -1
		if len(d.rows[row]) == 0 {
			continue
		}
		for i := range d.slotReq {
			d.slotReq[i] = false
		}
		for i := range d.slotToReq {
			d.slotToReq[i] = -1
		}
		for _, idx := range d.rows[row] {
			slot := d.cfg.Slot(rs.Requests[idx].VC)
			if d.slotToReq[slot] < 0 {
				d.slotToReq[slot] = idx
			}
		}
		for slot, reqIdx := range d.slotToReq {
			d.slotReq[slot] = reqIdx >= 0
		}
		if slot := d.inputArbs[row].Arbitrate(d.slotReq); slot >= 0 {
			d.candidate[row] = d.slotToReq[slot]
		}
	}

	d.grants = d.grants[:0]
	for out := 0; out < d.cfg.Ports; out++ {
		for i := range d.rowReq {
			d.rowReq[i] = false
		}
		any := false
		for row, reqIdx := range d.candidate {
			if reqIdx >= 0 && rs.Requests[reqIdx].OutPort == out {
				d.rowReq[row] = true
				any = true
			}
		}
		if !any {
			continue
		}
		row := d.outputArbs[out].Arbitrate(d.rowReq)
		req := rs.Requests[d.candidate[row]]
		d.grants = append(d.grants, Grant{IVC: req.Port*d.cfg.VCs + req.VC, OutPort: out, Row: row})
		d.outputArbs[out].Ack(row)
		d.inputArbs[row].Ack(d.cfg.Slot(req.VC))
	}
	return d.grants
}

// denseWavefront is the wavefront allocator as it was written before the
// per-diagonal row masks: a full (diagonal, row) sweep probing every cell
// with a modulo each, []bool busy vectors, and arb.RoundRobin objects
// choosing among a cell's VCs through a []bool slot vector. It is the
// reference the bucketed production sweep is held to.
type denseWavefront struct {
	cfg    Config
	prio   int
	vcPick []arb.Arbiter

	cell      [][][]int // cell[row][out] = request indices
	rowBusy   []bool
	outBusy   []bool
	slotReq   []bool
	slotToReq []int
	grants    []Grant
}

func newDenseWavefront(cfg Config) *denseWavefront {
	d := &denseWavefront{
		cfg:       cfg,
		cell:      make([][][]int, cfg.Rows()),
		rowBusy:   make([]bool, cfg.Rows()),
		outBusy:   make([]bool, cfg.Ports),
		slotReq:   make([]bool, cfg.GroupSize()),
		slotToReq: make([]int, cfg.GroupSize()),
	}
	for i := range d.cell {
		d.cell[i] = make([][]int, cfg.Ports)
	}
	d.vcPick = make([]arb.Arbiter, cfg.Rows())
	for i := range d.vcPick {
		d.vcPick[i] = arb.NewRoundRobin(cfg.GroupSize())
	}
	return d
}

// pick is the []bool form of pickSlot.
func (d *denseWavefront) pick(rs *RequestSet, reqIdxs []int, a arb.Arbiter) int {
	if len(reqIdxs) == 1 {
		return reqIdxs[0]
	}
	for i := range d.slotReq {
		d.slotReq[i] = false
		d.slotToReq[i] = -1
	}
	for _, idx := range reqIdxs {
		slot := d.cfg.Slot(rs.Requests[idx].VC)
		d.slotReq[slot] = true
		if d.slotToReq[slot] < 0 {
			d.slotToReq[slot] = idx
		}
	}
	slot := a.Arbitrate(d.slotReq)
	a.Ack(slot)
	return d.slotToReq[slot]
}

func (d *denseWavefront) allocate(rs *RequestSet) []Grant {
	rows, outs := d.cfg.Rows(), d.cfg.Ports
	for i := range d.cell {
		for j := range d.cell[i] {
			d.cell[i][j] = d.cell[i][j][:0]
		}
		d.rowBusy[i] = false
	}
	for j := range d.outBusy {
		d.outBusy[j] = false
	}
	for idx, r := range rs.Requests {
		row := d.cfg.Row(r.Port, r.VC)
		d.cell[row][r.OutPort] = append(d.cell[row][r.OutPort], idx)
	}
	n := rows
	if outs > n {
		n = outs
	}
	d.grants = d.grants[:0]
	for k := 0; k < n; k++ {
		diag := (d.prio + k) % n
		for i := 0; i < rows; i++ {
			j := ((diag-i)%n + n) % n
			if j >= outs || len(d.cell[i][j]) == 0 || d.rowBusy[i] || d.outBusy[j] {
				continue
			}
			r := rs.Requests[d.pick(rs, d.cell[i][j], d.vcPick[i])]
			d.grants = append(d.grants, Grant{IVC: r.Port*d.cfg.VCs + r.VC, OutPort: j, Row: i})
			d.rowBusy[i] = true
			d.outBusy[j] = true
		}
	}
	d.prio = (d.prio + 1) % n
	return d.grants
}

// lazyWords lists, per kind and lane, the request words it drains as it
// consumes them; assertDrained holds them to all-zero between calls.
// Ideal and SeparableAge inherit SeparableIF's.
func (s *SeparableIF) lazyWords() []wordBank {
	var banks []wordBank
	for l := range s.p.lanes() {
		outMask, outOcc := s.p.laneMasks(l)
		banks = append(banks, wordBank{"outMask", l, outMask}, wordBank{"outOcc", l, outOcc})
	}
	return banks
}

func (c *PacketChaining) lazyWords() []wordBank {
	in := c.inner()
	return in.lazyWords()
}

func (s *Sparoflo) lazyWords() []wordBank {
	p := s.p
	var banks []wordBank
	for l := range p.lanes() {
		lineAt, occAt, winsAt, portAt := p.masksAt(l)
		banks = append(banks, wordBank{"lineMask", l, p.words[lineAt:occAt]}, wordBank{"outOcc", l, p.words[occAt:winsAt]},
			wordBank{"wins", l, p.words[winsAt:portAt]}, wordBank{"portOcc", l, p.words[portAt : portAt+p.outWords]})
	}
	return banks
}

func (s *ISLIP) lazyWords() []wordBank {
	p := s.p
	var banks []wordBank
	for l := range p.lanes() {
		reqAt, occAt, freeAt, doneAt, askAt, offersAt, offeredAt := p.masksAt(l)
		banks = append(banks, wordBank{"reqRows", l, p.words[reqAt:occAt]}, wordBank{"outOcc", l, p.words[occAt:freeAt]},
			wordBank{"freeRows", l, p.words[freeAt:doneAt]}, wordBank{"outDone", l, p.words[doneAt:askAt]},
			wordBank{"offers", l, p.words[offersAt:offeredAt]}, wordBank{"offered", l, p.words[offeredAt : offeredAt+p.rowWords]},
			wordBank{"cells", l, laneCells(&p.pool, &p.cells, l)})
	}
	return banks
}

func (w *Wavefront) lazyWords() []wordBank {
	var banks []wordBank
	for l := range w.p.lanes() {
		diagRows := seg(w.p.words, l, w.p.wordsPer())[:w.p.diagonals()*w.p.rowWords]
		banks = append(banks, wordBank{"diagRows", l, diagRows}, wordBank{"cells", l, laneCells(&w.p.pool, &w.p.cells, l)})
	}
	return banks
}

func (a *AugmentingPath) lazyWords() []wordBank {
	var banks []wordBank
	for l := range a.p.lanes() {
		banks = append(banks, wordBank{"cells", l, laneCells(&a.p.pool, &a.p.cells, l)})
	}
	return banks
}

// lanes returns the pool's lane count.
func (p *pool) lanes() int { return len(p.grants) / p.ports }

// laneCells returns lane l's matrix of cells.
func laneCells(p *pool, cells *cellSlots, l int) []uint64 {
	return seg(cells.cells, l, p.rows*p.ports)
}

// rrPointer reads a round-robin arbiter's priority pointer through its
// stateless decision: with every line raised, the winner is the pointer.
func rrPointer(a arb.Arbiter) int32 {
	all := make([]bool, a.Size())
	for i := range all {
		all[i] = true
	}
	return int32(a.Arbitrate(all))
}

// ReferenceGeometries (exported to the external test package) is the
// corpus the mask allocators are held to their dense references on: the three evaluated radices at k = 1, 2 and VCs,
// VC counts k does not divide (a short last sub-group), the interleaved
// partition, and the 128-row ideal-VIX crossbar whose row masks span two
// words. FuzzAllocate seeds from the same list.
func ReferenceGeometries() []Config {
	var cfgs []Config
	for _, ports := range []int{5, 8, 10} {
		for _, vcs := range []int{4, 6} {
			for _, k := range []int{1, 2, vcs} {
				cfgs = append(cfgs, Config{Ports: ports, VCs: vcs, VirtualInputs: k})
			}
		}
	}
	return append(cfgs,
		Config{Ports: 5, VCs: 5, VirtualInputs: 2},
		Config{Ports: 8, VCs: 7, VirtualInputs: 3},
		Config{Ports: 5, VCs: 5, VirtualInputs: 4}, // last sub-group empty
		Config{Ports: 5, VCs: 6, VirtualInputs: 2, Partition: Interleaved},
		Config{Ports: 10, VCs: 7, VirtualInputs: 3, Partition: Interleaved},
		Config{Ports: 16, VCs: 8, VirtualInputs: 8},  // Rows = 128: two row-mask words
		Config{Ports: 3, VCs: 64, VirtualInputs: 1},  // a full 64-line arbiter word
		Config{Ports: 2, VCs: 64, VirtualInputs: 64}, // Rows = 128 > Ports
		Config{Ports: 10, VCs: 7, VirtualInputs: 3},  // port 9's VCs are input VCs 63-69: across a word boundary
	)
}

// lockstepLoads is the load pattern the lockstep streams cycle through;
// the negative entry stands for a lone-request cycle.
var lockstepLoads = []float64{0.9, 0.05, 0, -1, 0.5, 0, 0.95, 0.1, 0}

// lockstepRequests draws one cycle of the lockstep streams, packed. Load
// swings between saturation, trickle and silence so a mask left dirty by
// a lazy clear would surface. One cycle of each pattern is a lone request
// — the below-saturation common case SeparableIF grants without
// arbitrating — and successive ones enumerate every (port, VC) x output,
// so between them every row and slot meets every output, each next to a
// contended cycle and a possible idle span.
func lockstepRequests(rng *sim.RNG, cfg Config, cycle int) *RequestSet {
	load := lockstepLoads[cycle%len(lockstepLoads)]
	if load < 0 {
		i := cycle / len(lockstepLoads)
		ivc := i / cfg.Ports % (cfg.Ports * cfg.VCs)
		return (&RequestSet{Config: cfg, Requests: []Request{
			{Port: ivc / cfg.VCs, VC: ivc % cfg.VCs, OutPort: i % cfg.Ports},
		}}).Pack()
	}
	return randomRequestSet(rng, cfg, load)
}

// lockstepCycles is the default stream length per geometry;
// loneSweepCycles is the length at which the lone requests have
// enumerated every (port, VC) x output.
const lockstepCycles = 2500

func loneSweepCycles(cfg Config) int {
	return max(lockstepCycles, len(lockstepLoads)*cfg.Ports*cfg.VCs*cfg.Ports)
}

// runLockstep drives a mask allocator and its dense reference with
// identical request streams of the given length and demands identical
// grant sequences every cycle, then calls same to compare the persistent
// arbiter state, with the Cycle the mask allocator's next call carries.
// Idle spans reach the reference, which counts its calls, as literal
// empty calls, and the mask allocator as none: its clock moves on.
func runLockstep(t *testing.T, cfg Config, cycles int, packed Allocator, dense func(*RequestSet) []Grant, same func(cycle int, next int64)) {
	t.Helper()
	rng := sim.NewRNG(404)
	empty := &RequestSet{Config: cfg}
	clock := int64(0)
	for cycle := 0; cycle < cycles; cycle++ {
		rs := lockstepRequests(rng, cfg, cycle)
		if len(rs.Requests) == 0 && rng.Bernoulli(0.5) {
			// Mostly short spans; one in eight outlasts the wavefront's
			// diagonal period, max(Rows, Ports).
			span := 1 + rng.Intn(4)
			if rng.Bernoulli(0.125) {
				span += cfg.Rows() + cfg.Ports
			}
			for i := 0; i < span; i++ {
				dense(empty)
			}
			clock += int64(span)
			same(cycle, clock)
			continue
		}
		rs.Cycle = clock
		clock++
		gp, gd := packed.Allocate(rs), dense(rs)
		if len(gp) != len(gd) {
			t.Fatalf("cfg %+v cycle %d: packed granted %d, dense %d", cfg, cycle, len(gp), len(gd))
		}
		for j := range gp {
			if gp[j] != gd[j] {
				t.Fatalf("cfg %+v cycle %d grant %d: packed %+v, dense %+v", cfg, cycle, j, gp[j], gd[j])
			}
		}
		if err := Validate(rs, gp); err != nil {
			t.Fatalf("cfg %+v cycle %d: %v", cfg, cycle, err)
		}
		same(cycle, clock)
	}
}

// TestSeparableIFMatchesDenseReference holds the mask SeparableIF to the
// dense reference over ReferenceGeometries: same grants in the same
// order, the same input- and output-arbiter pointers after every call —
// the lone-request grant moves them without arbitrating — and every
// lazily-drained mask back to all-zero.
func TestSeparableIFMatchesDenseReference(t *testing.T) {
	for _, cfg := range ReferenceGeometries() {
		packed := NewSeparableIF(cfg)
		dense := newDenseSeparableIF(cfg)
		runLockstep(t, cfg, loneSweepCycles(cfg), packed, dense.allocate, func(cycle int, _ int64) {
			for row, a := range dense.inputArbs {
				if got, want := int32(packed.p.inPtr[packed.i*packed.p.rows+row]), rrPointer(a); got != want {
					t.Fatalf("cfg %+v cycle %d: input pointer of row %d is %d, dense %d", cfg, cycle, row, got, want)
				}
			}
			for out, a := range dense.outputArbs {
				if got, want := int32(packed.p.outPtr[packed.i*packed.p.ports+out]), rrPointer(a); got != want {
					t.Fatalf("cfg %+v cycle %d: output pointer of port %d is %d, dense %d", cfg, cycle, out, got, want)
				}
			}
			assertDrained(t, packed, fmt.Sprintf("cfg %+v cycle %d", cfg, cycle))
		})
	}
}

// TestWavefrontMatchesDenseReference is the wavefront twin: the bucketed
// sweep against the full (diagonal, row) sweep, comparing grants, the
// priority diagonal (the next call's Cycle mod n) and every row's VC
// pointer.
func TestWavefrontMatchesDenseReference(t *testing.T) {
	for _, cfg := range ReferenceGeometries() {
		packed := MustNew(KindWavefront, cfg).(*Wavefront)
		dense := newDenseWavefront(cfg)
		runLockstep(t, cfg, lockstepCycles, packed, dense.allocate, func(cycle int, next int64) {
			if prio := int(next % int64(packed.p.diagonals())); prio != dense.prio {
				t.Fatalf("cfg %+v cycle %d: priority diagonal %d, dense %d", cfg, cycle, prio, dense.prio)
			}
			for row, a := range dense.vcPick {
				if got, want := int32(packed.p.vcPtr[packed.i*packed.p.rows+row]), rrPointer(a); got != want {
					t.Fatalf("cfg %+v cycle %d: VC pointer of row %d is %d, dense %d", cfg, cycle, row, got, want)
				}
			}
		})
	}
}

// TestAllocatorsSurviveLoadSwings hammers the occupancy-tracked scratch
// of every allocator with the lockstep stream — saturated, sparse, lone
// and empty request sets, duplicates and shuffles included: a cell or row
// left stale by a lazy clear fails assertDrained at the cycle it happens,
// or produces a grant with no matching request, which Validate rejects.
func TestAllocatorsSurviveLoadSwings(t *testing.T) {
	rng := sim.NewRNG(405)
	for _, kind := range Kinds() {
		cfg := Config{Ports: 8, VCs: 6, VirtualInputs: 2}
		switch kind {
		case KindIdeal:
			cfg.VirtualInputs = cfg.VCs
		case KindSparoflo:
			cfg.VirtualInputs = 1
		}
		a := MustNew(kind, cfg)
		for cycle := 0; cycle < 300; cycle++ {
			rs := lockstepRequests(rng, cfg, cycle)
			rs.Cycle = int64(cycle)
			if err := Validate(rs, a.Allocate(rs)); err != nil {
				t.Fatalf("%s cycle %d: %v", kind, cycle, err)
			}
			assertDrained(t, a, fmt.Sprintf("%s cycle %d", kind, cycle))
		}
	}
}
