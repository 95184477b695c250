// Package alloc implements switch allocators for virtual-channel NoC
// routers, including the paper's Virtual Input Crossbar (VIX) technique.
//
// A switch allocator matches requesting input virtual channels to output
// ports each cycle. The crossbar geometry is captured by Config: a router
// with P ports and k virtual inputs per port has a kP x P crossbar. The
// v VCs of each input port are partitioned into k contiguous sub-groups,
// each feeding one crossbar row (virtual input). With k = 1 this is the
// conventional P x P crossbar; k = 2 is the paper's practical VIX
// configuration; k = v is the ideal VIX where every VC has its own
// crossbar input.
//
// Every allocator must produce a conflict-free grant set:
//
//   - at most one grant per crossbar row (virtual input), and
//   - at most one grant per output port, and
//   - every grant corresponds to an offered request.
//
// Validate checks these invariants and is exercised by property tests.
package alloc

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"vix/internal/arb"
)

// Partition selects how a port's VCs are divided among its virtual
// inputs.
type Partition uint8

// VC partition schemes.
const (
	// Contiguous assigns VCs to sub-groups in blocks: with v = 6, k = 2,
	// VCs 0-2 feed virtual input 0 and VCs 3-5 feed virtual input 1.
	// This matches the paper's Figure 2 (a multiplexer over v/2 adjacent
	// VCs) and is the default.
	Contiguous Partition = iota
	// Interleaved assigns VCs round-robin: VC i feeds virtual input
	// i mod k. An ablation alternative with different wiring locality.
	Interleaved
)

// partitionNames are the partitions' spec names, indexed by Partition.
var partitionNames = [...]string{Contiguous: "contiguous", Interleaved: "interleaved"}

// String returns the partition's spec name.
func (p Partition) String() string { return partitionNames[p] }

// Partitions lists the partitions ParsePartition accepts; each prints as
// its spec name.
func Partitions() []Partition {
	ps := make([]Partition, len(partitionNames))
	for i := range ps {
		ps[i] = Partition(i)
	}
	return ps
}

// ParsePartition returns the partition named name.
func ParsePartition(name string) (Partition, error) {
	for p, n := range partitionNames {
		if n == name {
			return Partition(p), nil
		}
	}
	return 0, fmt.Errorf("alloc: unknown partition %q; want one of %v", name, partitionNames)
}

// Config describes the crossbar geometry an allocator serves.
type Config struct {
	// Ports is the router radix P: the number of physical input ports,
	// which equals the number of output ports.
	Ports int
	// VCs is the number of virtual channels per input port.
	VCs int
	// VirtualInputs is the number of crossbar inputs per physical input
	// port (k). 1 models the conventional crossbar, 2 the paper's VIX,
	// and VCs the ideal VIX.
	VirtualInputs int
	// Partition selects the VC-to-sub-group mapping (default Contiguous,
	// the paper's scheme).
	Partition Partition
}

// MaxVCs bounds Config.VCs: the request lines of one port's VCs (and so
// of any sub-group) are packed into a single 64-bit arbiter word.
const MaxVCs = 64

// MaxPorts bounds Config.Ports: a request set names each input VC's
// requested output in an int8 (RequestSet.Out).
const MaxPorts = math.MaxInt8

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Ports <= 0:
		return errors.New("alloc: Ports must be positive")
	case c.Ports > MaxPorts:
		return fmt.Errorf("alloc: Ports (%d) exceeds the %d outputs a request's int8 field names", c.Ports, MaxPorts)
	case c.VCs <= 0:
		return errors.New("alloc: VCs must be positive")
	case c.VirtualInputs <= 0:
		return errors.New("alloc: VirtualInputs must be positive")
	case c.VirtualInputs > c.VCs:
		return fmt.Errorf("alloc: VirtualInputs (%d) exceeds VCs (%d)", c.VirtualInputs, c.VCs)
	case c.VCs > MaxVCs:
		return fmt.Errorf("alloc: VCs (%d) exceeds the %d request lines of one arbiter word", c.VCs, MaxVCs)
	}
	return nil
}

// Rows returns the number of crossbar inputs (kP).
func (c Config) Rows() int { return c.Ports * c.VirtualInputs }

// GroupSize returns the number of VCs feeding one virtual input. The last
// sub-group of a port may be smaller when VCs is not divisible by
// VirtualInputs.
func (c Config) GroupSize() int {
	return (c.VCs + c.VirtualInputs - 1) / c.VirtualInputs
}

// Subgroup returns the virtual-input sub-group index of vc within its
// port, per the configured Partition.
func (c Config) Subgroup(vc int) int {
	if c.Partition == Interleaved {
		return vc % c.VirtualInputs
	}
	g := vc / c.GroupSize()
	if g >= c.VirtualInputs {
		g = c.VirtualInputs - 1
	}
	return g
}

// Row returns the crossbar row (virtual input index) that carries traffic
// from the given port and VC.
func (c Config) Row(port, vc int) int {
	return port*c.VirtualInputs + c.Subgroup(vc)
}

// Slot returns the index of vc within its sub-group, i.e. the input-arbiter
// request line it drives.
func (c Config) Slot(vc int) int {
	if c.Partition == Interleaved {
		return vc / c.VirtualInputs
	}
	return vc - c.Subgroup(vc)*c.GroupSize()
}

// Request is one input VC asking for one output port this cycle. A VC
// offers at most one request per cycle (its head flit has a single route).
type Request struct {
	Port    int // input port
	VC      int // virtual channel within the port
	OutPort int // requested output port
	// Age is how many cycles the requesting flit has waited at the front
	// of its buffer. Only age-aware allocators (KindSeparableAge) consult
	// it; zero is always safe.
	Age int
}

// inRange reports whether r names an input VC and an output port of cfg.
func (r Request) inRange(cfg Config) bool {
	return r.Port >= 0 && r.Port < cfg.Ports && r.VC >= 0 && r.VC < cfg.VCs && r.OutPort >= 0 && r.OutPort < cfg.Ports
}

// Grant records that input VC IVC = Port*VCs + VC may send its flit
// across the crossbar to OutPort this cycle via crossbar row Row.
type Grant struct {
	IVC     int
	OutPort int
	Row     int
}

// RequestSet is the per-cycle input to an allocator. It has two forms of
// the same requests, at most one per input VC.
//
// The packed form is what the built-in kinds read (and all they read):
// Ready has one bit per input VC ivc = Port*VCs + VC, bit ivc&63 of word
// ivc>>6, raised when the VC requests; Out and Age, indexed by ivc, hold
// its requested output and how many cycles its flit has waited, and are
// meaningful only where Ready has the bit. Age may be nil for a kind that
// does not read it (ReadsAge). The router passes its own
// request word and its per-VC output and wait slabs, so nothing is
// copied, and an allocator must not write them. A Ready with no words is
// an empty set.
//
// The list form, Requests, names the same requests; Validate and
// Classify read it. The router fills it, in ascending (Port, VC) order,
// only for an allocator that is not a built-in kind
// (IsBuiltin): a registered one, or a wrapper that hands the set on to a
// built-in inner allocator, which then reads the packed form. A caller
// holding only the list fills the packed form with Pack.
//
// Lane names the scratch a built-in kind's call uses (pool.go): calls
// that may run at once name different lanes, below the lane count their
// pool was built with (NewMany). A standalone allocator ignores it.
//
// Cycle is the simulation cycle of the call. What rotates once per cycle
// — wavefront's priority diagonal, the connections packet chaining
// keeps from the cycle before — is a function of it.
//
// The packed form leads the struct: Ready, Out, Lane and Cycle, all an
// input-first kind reads of it, share its first cache line.
type RequestSet struct {
	Ready []uint64
	Out   []int8
	Lane  int
	Cycle int64
	Age   []int32

	Config   Config
	Requests []Request
}

// Allocator matches requests to crossbar resources for one cycle.
// Allocators are stateful (arbiter priorities, chaining history) and are
// not safe for concurrent use; each router owns its own instance. Calls
// on different instances of one pool may run at once if their request
// sets name different lanes.
//
// A router calls Allocate once per cycle it ticks, and a router holding
// no flits is not ticked, so an instance sees no call on cycles its
// router is idle. Its state may depend on RequestSet.Cycle and on the
// requests of its calls, never on how many calls were made: a call on an
// empty set must leave it as no call would.
type Allocator interface {
	// Name returns a short identifier such as "if" or "wavefront".
	Name() string
	// Allocate returns a conflict-free grant set for the request set.
	//
	// The returned slice is allocator-owned scratch: it is valid only
	// until the next Allocate call in the same lane (RequestSet.Lane),
	// on this allocator or any other of its pool, and callers that
	// retain grants past it must copy them out. In
	// exchange, a warmed-up allocator performs zero heap allocations per
	// cycle — all working buffers are sized from Config at construction
	// (TestAllocateZeroAllocsSteadyState pins this down for every kind).
	Allocate(rs *RequestSet) []Grant
	// Reset restores initial arbiter state and clears history.
	Reset()
}

// Pack fills the packed form from Requests, reusing its storage once it
// has seen the geometry, and returns rs. The list must hold in-range
// requests, at most one per VC, in any order; Pack panics on any other
// list.
func (rs *RequestSet) Pack() *RequestSet {
	cfg := rs.Config
	n := cfg.Ports * cfg.VCs
	if words := (n + 63) / 64; len(rs.Ready) != words {
		rs.Ready = make([]uint64, words)
	} else {
		clear(rs.Ready)
	}
	if len(rs.Out) != n || len(rs.Age) != n {
		rs.Out, rs.Age = make([]int8, n), make([]int32, n)
	}
	for _, r := range rs.Requests {
		ivc := r.Port*cfg.VCs + r.VC
		if !r.inRange(cfg) || rs.Ready[ivc>>6]>>uint(ivc&63)&1 != 0 {
			panic(fmt.Sprintf("alloc: cannot pack request %+v: the list must hold in-range requests, at most one per VC", r))
		}
		rs.Ready[ivc>>6] |= 1 << uint(ivc&63)
		rs.Out[ivc] = int8(r.OutPort)
		rs.Age[ivc] = int32(r.Age)
	}
	return rs
}

// portLines returns port p's request lines from a Ready mask: bit v
// raised when VC v of the port requests. A port's VCs may straddle two
// words.
func portLines(ready []uint64, p, vcs int) uint64 {
	lo := p * vcs
	wi, sh := lo>>6, uint(lo&63)
	if wi >= len(ready) {
		return 0
	}
	w := ready[wi] >> sh
	if int(sh)+vcs > 64 && wi+1 < len(ready) {
		w |= ready[wi+1] << (64 - sh)
	}
	return w & (uint64(1)<<uint(vcs) - 1)
}

// subgroups reads the input arbiters' request words straight off a
// port's request lines: the bit positions give the crossbar row and the
// slot, so no per-VC table is needed.
type subgroups struct {
	vcs, k, size int // Config.VCs, VirtualInputs, GroupSize
	interleaved  bool
}

func newSubgroups(cfg Config) subgroups {
	return subgroups{vcs: cfg.VCs, k: cfg.VirtualInputs, size: cfg.GroupSize(), interleaved: cfg.Partition == Interleaved}
}

// slots returns sub-group g's input-arbiter word of a port with request
// lines lines: bit s raised when the VC in slot s requests.
func (sg subgroups) slots(lines uint64, g int) uint64 {
	if !sg.interleaved {
		return lines >> uint(g*sg.size) & (uint64(1)<<uint(sg.size) - 1)
	}
	var w uint64
	for s, v := 0, g; v < sg.vcs; s, v = s+1, v+sg.k {
		w |= (lines >> uint(v) & 1) << uint(s)
	}
	return w
}

// vc returns the VC in slot s of sub-group g.
func (sg subgroups) vc(g, s int) int {
	if sg.interleaved {
		return s*sg.k + g
	}
	return g*sg.size + s
}

// The divides below are 32-bit ones, the shorter instruction: their
// operands are input VCs, rows and VCs, all below MaxPorts·MaxVCs.

// ivc returns the input VC in slot s of crossbar row row.
func (sg subgroups) ivc(row, s int) int {
	if sg.k == 1 {
		return row*sg.vcs + s // a row is a port, a slot a VC
	}
	p := int(uint32(row) / uint32(sg.k))
	return p*sg.vcs + sg.vc(row-p*sg.k, s)
}

// at returns input VC ivc's crossbar row and slot (Config.Row and Slot).
func (sg subgroups) at(ivc int) (row, s int) {
	p := int(uint32(ivc) / uint32(sg.vcs))
	vc := ivc - p*sg.vcs
	var g int
	if sg.interleaved {
		g, s = vc%sg.k, vc/sg.k
	} else {
		g = int(uint32(vc) / uint32(sg.size))
		s = vc - g*sg.size
	}
	return p*sg.k + g, s
}

// Validate checks that rs lists in-range requests, at most one per VC,
// and that grants form a legal allocation for it: every grant matches an
// offered request, no crossbar row is granted twice (so no VC is either),
// and no output port is granted twice. It returns nil for a legal
// allocation, and rs.Config's own error for an invalid geometry.
//
// The marks are bitsets on the stack, sized for the largest geometry
// Config.Validate admits, so Validate allocates nothing and the property
// tests and traced runs that call it every simulated cycle stay cheap.
func Validate(rs *RequestSet, grants []Grant) error {
	cfg := rs.Config
	if err := cfg.Validate(); err != nil {
		return err
	}
	var listed, rowUsed [(MaxPorts*MaxVCs + 63) / 64]uint64 // per ivc, per row
	var outUsed [(MaxPorts + 63) / 64]uint64
	for _, r := range rs.Requests {
		if !r.inRange(cfg) {
			return fmt.Errorf("alloc: request %+v is out of range", r)
		}
		if ivc := r.Port*cfg.VCs + r.VC; !mark(listed[:], ivc) {
			return fmt.Errorf("alloc: VC (%d,%d) is listed twice", r.Port, r.VC)
		}
	}
	for _, g := range grants {
		if g.IVC < 0 || g.IVC >= cfg.Ports*cfg.VCs || listed[g.IVC>>6]>>uint(g.IVC&63)&1 == 0 {
			return fmt.Errorf("alloc: grant %+v names no requesting VC", g)
		}
		var req Request
		for _, r := range rs.Requests {
			if r.Port*cfg.VCs+r.VC == g.IVC {
				req = r
				break
			}
		}
		if g.OutPort != req.OutPort {
			return fmt.Errorf("alloc: grant %+v does not match its request %+v", g, req)
		}
		if want := cfg.Row(req.Port, req.VC); g.Row != want {
			return fmt.Errorf("alloc: grant %+v has row %d, want %d", g, g.Row, want)
		}
		if !mark(rowUsed[:], g.Row) {
			return fmt.Errorf("alloc: crossbar row %d granted twice", g.Row)
		}
		if !mark(outUsed[:], g.OutPort) {
			return fmt.Errorf("alloc: output port %d granted twice", g.OutPort)
		}
	}
	return nil
}

// mark sets bit i of set and reports whether it was clear.
func mark(set []uint64, i int) bool {
	w, b := &set[i>>6], uint64(1)<<uint(i&63)
	if *w&b != 0 {
		return false
	}
	*w |= b
	return true
}

// cellSlots is the request matrix by (crossbar row, output port) cell,
// for the matrix-style allocators (wavefront, augmenting path, iSLIP):
// one word per cell, a bit per slot of the row whose VC requests the
// output — the input of the row's VC choice. Each allocator lowers the
// cells it raised from its own record of them (diagonal rows, adjacency
// lists, per-output row words), so the words are all-zero between calls
// and a call never sweeps the Rows x Ports matrix. Every lane of a pool
// has its matrix in the pool's one cellSlots, addressed by lane row: lane
// l's row r is l*rows+r.
//
// Reading a granted cell's slots off the request set instead, with no
// matrix, saved Rows x Ports words per instance while scratch was kept
// per instance, but made fbfly_wf_sat (wavefront) 16 % slower to set up
// and 4 % slower per operation.
type cellSlots struct {
	outs  int
	cells []uint64 // per lane row*outs+out
}

// newCellSlots returns all-zero matrices of outs cells per lane row.
func newCellSlots(laneRows, outs int) cellSlots {
	return cellSlots{outs: outs, cells: make([]uint64, laneRows*outs)}
}

// add raises slot's line on the (row, out) cell, and reports whether it
// is the cell's first.
func (s *cellSlots) add(row, out, slot int) (first bool) {
	c := &s.cells[row*s.outs+out]
	first = *c == 0
	*c |= 1 << uint(slot)
	return first
}

// at returns the (row, out) cell's slots.
func (s *cellSlots) at(row, out int) uint64 { return s.cells[row*s.outs+out] }

// take returns the (row, out) cell's slots and lowers them.
func (s *cellSlots) take(row, out int) uint64 {
	c := &s.cells[row*s.outs+out]
	slots := *c
	*c = 0
	return slots
}

// pickSlot is a row's VC choice among a cell's slots: round-robin from
// the row's pointer ptr, as the hardware input arbiter picks. It returns
// the winning slot and the pointer the caller stores back; a lone slot
// wins without moving the pointer.
func pickSlot(slots uint64, ptr int8, groupSize int) (slot int, next int8) {
	if slots&(slots-1) == 0 {
		return bits.TrailingZeros64(slots), ptr
	}
	slot = arb.Pick(slots, int(ptr))
	return slot, int8(arb.Next(slot, groupSize))
}
