package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"vix/internal/alloc"
	"vix/internal/network"
	"vix/internal/router"
	"vix/internal/sim"
	"vix/internal/traffic"
)

// The benchmark measures every layer from outside. Where a layer is only
// reachable through the network (the allocator and the traffic pattern),
// the network is handed a wrapper through the extension point it already
// has: alloc.Register for allocators, Config.Pattern for destinations,
// Config.OnEject for leaving flits. The wrappers delegate everything and
// keep per-instance counters, so the sharded tick may call them from its
// workers without sharing state.

// tracedKind names the traced wrapper of a built-in allocator kind.
func tracedKind(k alloc.Kind) alloc.Kind { return "traced-" + k }

// tracedAllocs holds the wrapper instances built since the last drain.
// alloc.Register factories take only the geometry, so a pass drains the
// list before network.New and again after it to find its own instances.
var tracedAllocs struct {
	mu   sync.Mutex
	list []*tracedAlloc
}

func init() {
	for _, k := range alloc.Kinds() {
		if err := registerTraced(k); err != nil {
			panic("vixbench: " + err.Error())
		}
	}
}

// registerTraced registers the traced wrapper of an allocator kind.
func registerTraced(inner alloc.Kind) error {
	return alloc.Register(tracedKind(inner), func(cfg alloc.Config) (alloc.Allocator, error) {
		t, err := newTracedAlloc(inner, cfg)
		if err != nil {
			return nil, err
		}
		tracedAllocs.mu.Lock()
		tracedAllocs.list = append(tracedAllocs.list, t)
		tracedAllocs.mu.Unlock()
		return t, nil
	})
}

// drainTracedAllocs returns and forgets the instances built so far.
func drainTracedAllocs() []*tracedAlloc {
	tracedAllocs.mu.Lock()
	defer tracedAllocs.mu.Unlock()
	l := tracedAllocs.list
	tracedAllocs.list = nil
	return l
}

// tracedAlloc wraps one router's allocator. It clocks Allocate and counts
// requests and grants. Once the clock has stopped it copies the call's
// requests and grants, and validate, called after the cycle, hands the
// copy to alloc.Validate. Validating inside Allocate would put
// alloc.Validate and its allocations on Network.Step's hot path, which
// the compiler escape gate (vixlint -escapes) keeps allocation-free.
type tracedAlloc struct {
	inner alloc.Allocator
	skip  alloc.IdleSkipper

	calls, empty     int64
	requests, grants int64
	hist             histogram

	last         alloc.RequestSet // copy of the latest call's requests
	lastGrants   []alloc.Grant    // copy of its grants
	unchecked    bool             // the copy has not been validated yet
	invalid      error            // latest alloc.Validate failure
	invalidCalls int64            // failures since the caller last zeroed it
}

func newTracedAlloc(kind alloc.Kind, cfg alloc.Config) (*tracedAlloc, error) {
	inner, err := alloc.New(kind, cfg)
	if err != nil {
		return nil, err
	}
	skip, ok := inner.(alloc.IdleSkipper)
	if !ok {
		return nil, fmt.Errorf("vixbench: allocator %q has no SkipIdle to delegate to", kind)
	}
	return &tracedAlloc{
		inner: inner, skip: skip,
		last: alloc.RequestSet{Config: cfg, Requests: make([]alloc.Request, 0, cfg.Ports*cfg.VCs)},
	}, nil
}

// resetCounts forgets what was counted so far (the warm-up), keeping any
// failed check.
func (t *tracedAlloc) resetCounts() {
	t.calls, t.empty, t.requests, t.grants, t.hist = 0, 0, 0, 0, histogram{}
}

// Name implements alloc.Allocator.
func (t *tracedAlloc) Name() string { return "traced" }

// Allocate implements alloc.Allocator.
func (t *tracedAlloc) Allocate(rs *alloc.RequestSet) []alloc.Grant {
	start := time.Now()
	grants := t.inner.Allocate(rs)
	t.hist.add(int64(time.Since(start)))
	t.calls++
	if len(rs.Requests) == 0 {
		t.empty++
	}
	t.requests += int64(len(rs.Requests))
	t.grants += int64(len(grants))
	// One request per input VC at most, so the copy fits the buffer made
	// at construction.
	t.last.Requests = t.last.Requests[:len(rs.Requests)]
	copy(t.last.Requests, rs.Requests)
	t.lastGrants = append(t.lastGrants[:0], grants...)
	t.unchecked = true
	return grants
}

// validate checks the latest allocation, if it has not been checked.
func (t *tracedAlloc) validate() {
	if !t.unchecked {
		return
	}
	t.unchecked = false
	if err := alloc.Validate(&t.last, t.lastGrants); err != nil {
		t.invalidCalls++
		t.invalid = err
	}
}

// stepChecked advances the network one cycle and validates what every
// wrapped allocator granted in it.
func stepChecked(n *network.Network, allocs []*tracedAlloc) {
	n.Step()
	for _, t := range allocs {
		t.validate()
	}
}

// Reset implements alloc.Allocator.
func (t *tracedAlloc) Reset() { t.inner.Reset() }

// SkipIdle implements alloc.IdleSkipper, so the activity gate treats a
// wrapped allocator exactly like the one inside.
func (t *tracedAlloc) SkipIdle(cycles int) { t.skip.SkipIdle(cycles) }

// tracedPattern counts the destinations the network draws. One Dest call
// is one generated packet, which is what the conservation check needs.
// The call itself is a few nanoseconds, far below the clock's cost, so
// its time is measured in a solo loop (soloDestNS) instead of here.
type tracedPattern struct {
	inner traffic.Pattern
	calls int64
}

// Name implements traffic.Pattern.
func (p *tracedPattern) Name() string { return p.inner.Name() }

// Dest implements traffic.Pattern.
func (p *tracedPattern) Dest(src int, rng *sim.RNG) int {
	p.calls++
	return p.inner.Dest(src, rng)
}

// ejectChecker observes leaving flits through Config.OnEject: the flits
// of a packet must leave head first, tail last, none missing in between.
//
// It names a packet by its source and creation cycle, not by PacketID and
// Seq. The simulator never reads those after injection, and the
// state-graph gate (.vixlint/stategraph.golden) holds them to that: an
// observer reading them at ejection would make them state a checkpoint
// has to carry. A source creates at most one packet per cycle, except for
// the two a MaxInjection source starts with at cycle 0, which are left
// out of the order check (they are still counted).
type ejectChecker struct {
	seen     map[packetKey]int // flits of the packet that have left
	flits    int64
	disorder int64
	first    string
	// each, when non-nil, also sees every flit (transparency test).
	each func(f *router.Flit)
}

type packetKey struct {
	src    int
	create int64
}

func newEjectChecker() *ejectChecker { return &ejectChecker{seen: make(map[packetKey]int)} }

func (e *ejectChecker) onEject(f *router.Flit) {
	e.flits++
	if f.CreateCycle > 0 {
		k := packetKey{f.Src, f.CreateCycle}
		n := e.seen[k]
		if want := router.PacketFlitType(n, benchPacketSize); f.Type != want {
			e.disorder++
			if e.first == "" {
				e.first = fmt.Sprintf("packet of node %d created at cycle %d: flit %d left as %v, want %v", f.Src, f.CreateCycle, n, f.Type, want)
			}
		}
		if f.Type.IsTail() {
			delete(e.seen, k)
		} else {
			e.seen[k] = n + 1
		}
	}
	if e.each != nil {
		e.each(f)
	}
}

// span is one coarse boundary of a run: set-up, network.New, warm-up, a
// window, a snapshot, or a vixd operation and its two halves.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: none
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"` // spans of one request share it
	Start  int64  `json:"start_ns"`      // since the recorder was made
	End    int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory and writes them when the run ends.
// A nil recorder records nothing, which is how untraced runs pay nothing.
type spanRecorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (r *spanRecorder) begin(name, req string, parent int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(r.spans)
}

func (r *spanRecorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// write stores the spans as JSON lines.
func (r *spanRecorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// clockNS measures what a time.Now/time.Since pair reads when it brackets
// nothing, so clocked hot calls can have that much taken off.
func clockNS() float64 {
	const n = 200000
	var total int64
	for i := 0; i < n; i++ {
		t := time.Now()
		total += int64(time.Since(t))
	}
	return float64(total) / n
}
