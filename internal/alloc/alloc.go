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
	"math/bits"
	"strings"

	"vix/internal/arb"
	"vix/internal/sim"
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

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Ports <= 0:
		return errors.New("alloc: Ports must be positive")
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

// mustValidate panics when cfg is invalid. Allocator constructors call it
// so that an impossible crossbar geometry fails loudly at construction
// time rather than corrupting an allocation later.
func mustValidate(cfg Config) { must(cfg.Validate()) }

// must panics on a geometry error. The kinds defined on one geometry only
// (ideal, sparoflo) state the condition once, as a function returning the
// error: their constructor passes it here and New returns it.
func must(err error) {
	if err != nil {
		panic("alloc: invalid config: " + strings.TrimPrefix(err.Error(), "alloc: "))
	}
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

// Grant records that the flit of one request may traverse the crossbar
// to OutPort this cycle via crossbar row Row. Req indexes the Requests
// slice of the RequestSet the grant answers: the granted input (port,
// VC) is rs.Requests[g.Req].Port/VC. Carrying the index instead of the
// coordinates keeps the grant loop on the arena-backed router a pure
// array walk — the router re-reads the request it built rather than
// re-deriving buffer addresses from coordinates.
type Grant struct {
	Req     int
	OutPort int
	Row     int
}

// Request resolves the request the grant answers within its request set.
func (g Grant) Request(rs *RequestSet) Request { return rs.Requests[g.Req] }

// RequestSet is the per-cycle input to an allocator. Precondition: at
// most one request per (Port, VC). The router and routerbench offer them
// in ascending (port, VC) order. A set that breaks the precondition still
// draws a legal grant set, but which of a VC's requests is considered is
// the kind's business (the kinds that arbitrate per row keep the first).
type RequestSet struct {
	Config   Config
	Requests []Request
}

// Allocator matches requests to crossbar resources for one cycle.
// Allocators are stateful (arbiter priorities, chaining history) and are
// not safe for concurrent use; each router owns its own instance.
type Allocator interface {
	// Name returns a short identifier such as "if" or "wavefront".
	Name() string
	// Allocate returns a conflict-free grant set for the request set.
	//
	// The returned slice is allocator-owned scratch: it is valid only
	// until the next Allocate or Reset call on the same allocator, and
	// callers that retain grants across cycles must copy them out. In
	// exchange, a warmed-up allocator performs zero heap allocations per
	// cycle — all working buffers are sized from Config at construction
	// (TestAllocateZeroAllocsSteadyState pins this down for every kind).
	Allocate(rs *RequestSet) []Grant
	// Reset restores initial arbiter state and clears history.
	Reset()
}

// Validate checks that grants form a legal allocation for rs: every grant
// matches an offered request, no crossbar row is granted twice, and no
// output port is granted twice. It returns nil for a legal allocation.
//
// The marks are flat slices indexed by the Config geometry rather than
// maps, keeping the property tests that call Validate every simulated
// cycle cheap. A grant whose request index falls outside the set, or
// whose output differs from the indexed request's, cannot pair up and is
// rejected as unmatched.
func Validate(rs *RequestSet, grants []Grant) error {
	cfg := rs.Config
	inRange := func(port, vc, out int) bool {
		return port >= 0 && port < cfg.Ports && vc >= 0 && vc < cfg.VCs && out >= 0 && out < cfg.Ports
	}
	rowUsed := make([]bool, cfg.Rows())
	outUsed := make([]bool, cfg.Ports)
	vcUsed := make([]bool, cfg.Ports*cfg.VCs)
	for _, g := range grants {
		if g.Req < 0 || g.Req >= len(rs.Requests) {
			return fmt.Errorf("alloc: grant %+v indexes no request (set has %d)", g, len(rs.Requests))
		}
		req := rs.Requests[g.Req]
		if !inRange(req.Port, req.VC, req.OutPort) || g.OutPort != req.OutPort {
			return fmt.Errorf("alloc: grant %+v does not match its request %+v", g, req)
		}
		if want := cfg.Row(req.Port, req.VC); g.Row != want {
			return fmt.Errorf("alloc: grant %+v has row %d, want %d", g, g.Row, want)
		}
		if rowUsed[g.Row] {
			return fmt.Errorf("alloc: crossbar row %d granted twice", g.Row)
		}
		if outUsed[g.OutPort] {
			return fmt.Errorf("alloc: output port %d granted twice", g.OutPort)
		}
		if vcUsed[req.Port*cfg.VCs+req.VC] {
			return fmt.Errorf("alloc: VC (%d,%d) granted twice", req.Port, req.VC)
		}
		rowUsed[g.Row] = true
		outUsed[g.OutPort] = true
		vcUsed[req.Port*cfg.VCs+req.VC] = true
	}
	return nil
}

// rowSlots is the input side of the request matrix as the input arbiters
// see it: per crossbar row, one word with a bit per sub-group slot offering
// a request, and per (row, slot) the request offered there. A VC offers
// one request; should a caller offer more, the first per slot stands.
// Every allocator that arbitrates per row (if, if-age, pc, sparoflo)
// builds it with raise and walks the set bits of occ and mask — ascending
// (row, slot), which is ascending (port, VC) within a row.
//
// mask and occ read all-zero between calls: if and if-age clear each row
// as its input arbiter picks, pc and sparoflo call drain, so a cycle
// costs what its requests cost and never a sweep of Rows words.
type rowSlots struct {
	rowOf     []int32 // per port*vcs+vc: precomputed Config.Row (two divisions a call)
	slotOf    []int32 // per vc: precomputed Config.Slot
	vcs       int
	groupSize int

	mask []uint64   // per row: slots offering a request
	occ  sim.Bitset // rows whose mask is non-zero
	req  []int32    // per row*groupSize+slot: the request offered there; valid where mask has the bit
}

// newRowSlots sizes the row words for cfg.
func newRowSlots(cfg Config) rowSlots {
	return rowSlots{
		rowOf:     rowTable(cfg),
		slotOf:    slotTable(cfg),
		vcs:       cfg.VCs,
		groupSize: cfg.GroupSize(),
		mask:      make([]uint64, cfg.Rows()),
		occ:       sim.NewBitset(cfg.Rows()),
		req:       make([]int32, cfg.Rows()*cfg.GroupSize()),
	}
}

// row returns the crossbar row carrying r.
func (s *rowSlots) row(r Request) int { return int(s.rowOf[r.Port*s.vcs+r.VC]) }

// raise raises each request's line on its row's word.
func (s *rowSlots) raise(rs *RequestSet) {
	for i, r := range rs.Requests {
		row := s.row(r)
		slot := int(s.slotOf[r.VC])
		if bit := uint64(1) << uint(slot); s.mask[row]&bit == 0 {
			s.mask[row] |= bit
			s.occ.Set(row)
			s.req[row*s.groupSize+slot] = int32(i)
		}
	}
}

// drain lowers every line raise raised.
func (s *rowSlots) drain() {
	for wi, w := range s.occ {
		for ; w != 0; w &= w - 1 {
			s.mask[wi<<6+bits.TrailingZeros64(w)] = 0
		}
		s.occ[wi] = 0
	}
}

// rowTable precomputes Config.Row for every (port, vc), indexed by
// port*VCs+vc.
func rowTable(cfg Config) []int32 {
	t := make([]int32, cfg.Ports*cfg.VCs)
	for p := 0; p < cfg.Ports; p++ {
		for v := 0; v < cfg.VCs; v++ {
			t[p*cfg.VCs+v] = int32(cfg.Row(p, v))
		}
	}
	return t
}

// slotTable precomputes Config.Slot for every vc.
func slotTable(cfg Config) []int32 {
	t := make([]int32, cfg.VCs)
	for v := 0; v < cfg.VCs; v++ {
		t[v] = int32(cfg.Slot(v))
	}
	return t
}

// cellScratch groups request indices by (crossbar row, output port) cell
// of the request matrix, replacing the per-cycle maps the matrix-style
// allocators (wavefront, augmenting-path, iSLIP) used to build. An
// occupancy bitset remembers the cells the last cycle filled, so clear
// touches O(requests) cells rather than the whole Rows x Ports matrix.
type cellScratch struct {
	outs  int
	cells [][]int    // cells[row*outs+out] = request indices, refilled per cycle
	occ   sim.Bitset // cells holding indices since the last clear
}

// newCellScratch sizes the cell lists for cfg.
func newCellScratch(cfg Config) cellScratch {
	return cellScratch{
		outs:  cfg.Ports,
		cells: make([][]int, cfg.Rows()*cfg.Ports),
		occ:   sim.NewBitset(cfg.Rows() * cfg.Ports),
	}
}

// clear truncates the cell lists dirtied since the last clear; all other
// cells are empty by induction.
func (s *cellScratch) clear() {
	for wi, w := range s.occ {
		if w == 0 {
			continue
		}
		for ; w != 0; w &= w - 1 {
			c := wi<<6 + bits.TrailingZeros64(w)
			s.cells[c] = s.cells[c][:0]
		}
		s.occ[wi] = 0
	}
}

// add appends a request index to the (row, out) cell.
func (s *cellScratch) add(row, out, idx int) {
	c := row*s.outs + out
	s.occ.Set(c)
	s.cells[c] = append(s.cells[c], idx)
}

// at returns the request indices of the (row, out) cell.
func (s *cellScratch) at(row, out int) []int {
	return s.cells[row*s.outs+out]
}

// vcPickScratch is the slot-mapping scratch behind the per-row VC choice
// shared by the matrix-style allocators: it maps each input-arbiter slot
// of a row onto the request index offered by the VC in that slot.
type vcPickScratch struct {
	slotOf    []int32 // per vc: precomputed Config.Slot
	groupSize int
	slotToReq []int32 // per slot: offered request index; valid where pick's mask has the bit
}

// newVCPickScratch sizes the slot table for cfg.
func newVCPickScratch(cfg Config) vcPickScratch {
	return vcPickScratch{
		slotOf:    slotTable(cfg),
		groupSize: cfg.GroupSize(),
		slotToReq: make([]int32, cfg.GroupSize()),
	}
}

// pick selects which of a row's requests wins by round-robin over the
// row's slot mask from the row's pointer ptr, mirroring the one-VC-per-
// slot mapping the hardware input arbiter sees (first request per slot
// wins). It returns the winning request index and the pointer the caller
// stores back; a lone request wins without moving the pointer.
// len(reqIdxs) must be at least 1.
func (s *vcPickScratch) pick(rs *RequestSet, reqIdxs []int, ptr int32) (reqIdx int, next int32) {
	if len(reqIdxs) == 1 {
		return reqIdxs[0], ptr
	}
	var mask uint64
	for _, idx := range reqIdxs {
		slot := s.slotOf[rs.Requests[idx].VC]
		if bit := uint64(1) << uint(slot); mask&bit == 0 {
			mask |= bit
			s.slotToReq[slot] = int32(idx)
		}
	}
	slot := arb.Pick(mask, int(ptr))
	return int(s.slotToReq[slot]), int32(arb.Next(slot, s.groupSize))
}
