package router

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"vix/internal/alloc"
	"vix/internal/topology"
)

// testRouter builds an isolated radix-5 router: port 0 local, ports 1-4
// links, with a lookahead stub that always reports ejection next hop.
func testRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	return rangedTestRouter(t, cfg, nil)
}

// rangedTestRouter is testRouter with a topology VC range.
func rangedTestRouter(t *testing.T, cfg Config, vcRange VCRangeFunc) *Router {
	t.Helper()
	ports := make([]PortInfo, cfg.Ports)
	ports[0] = PortInfo{Kind: topology.Local, Dim: topology.DimLocal}
	for p := 1; p < cfg.Ports; p++ {
		dim := topology.DimX
		if p >= 3 {
			dim = topology.DimY
		}
		ports[p] = PortInfo{Kind: topology.Link, Dim: dim}
	}
	a, err := alloc.New(cfg.AllocKind, cfg.Alloc())
	if err != nil {
		t.Fatal(err)
	}
	return New(7, cfg, ports, a, func(outPort, dst int) topology.Dim { return topology.DimLocal }, vcRange, nil)
}

func baseConfig() Config {
	return Config{
		Ports: 5, VCs: 6, VirtualInputs: 1, BufDepth: 5,
		AllocKind: alloc.KindSeparableIF, Policy: PolicyMaxFree,
	}
}

// deliver copies a packet's flits into the router's arena and pushes the
// ids into (port, vc) with the given route.
func deliver(r *Router, port, vc, route int, flits []*Flit) {
	for _, f := range flits {
		id := r.Flits().Alloc()
		g := r.Flits().At(id)
		*g = *f
		g.Route = route
		r.DeliverFlit(port, vc, id)
	}
}

func TestSingleFlitTraversal(t *testing.T) {
	r := testRouter(t, baseConfig())
	pkt := NewPacket(1, 0, 9, 1, 0)
	deliver(r, 1, 0, 2, pkt)

	ems, credits, _ := r.Tick()
	if len(ems) != 1 {
		t.Fatalf("got %d emissions, want 1", len(ems))
	}
	if ems[0].OutPort != 2 {
		t.Errorf("emitted through port %d, want 2", ems[0].OutPort)
	}
	if r.Flits().At(ems[0].Flit).Hops != 1 {
		t.Errorf("hops = %d, want 1", r.Flits().At(ems[0].Flit).Hops)
	}
	if len(credits) != 1 || credits[0] != (CreditMsg{Port: 1, VC: 0}) {
		t.Errorf("credits = %+v, want one for port 1 vc 0", credits)
	}
	// One downstream credit consumed at output 2.
	total := 0
	for v := 0; v < 6; v++ {
		total += r.Credits(2, v)
	}
	if total != 6*5-1 {
		t.Errorf("credits at out 2 sum to %d, want %d", total, 6*5-1)
	}
}

func TestEjectionConsumesNoCreditsAndEmitsUpstreamCredit(t *testing.T) {
	r := testRouter(t, baseConfig())
	pkt := NewPacket(1, 0, 9, 1, 0)
	deliver(r, 3, 2, 0, pkt) // route to local port 0

	ems, credits, _ := r.Tick()
	if len(ems) != 1 || ems[0].OutPort != 0 {
		t.Fatalf("ejection emission wrong: %+v", ems)
	}
	if r.Flits().At(ems[0].Flit).Hops != 0 {
		t.Errorf("ejection counted a hop: %d", r.Flits().At(ems[0].Flit).Hops)
	}
	if len(credits) != 1 || credits[0] != (CreditMsg{Port: 3, VC: 2}) {
		t.Errorf("credits = %+v", credits)
	}
	for v := 0; v < 6; v++ {
		if r.Credits(0, v) != 5 {
			t.Errorf("local out credits changed: vc %d = %d", v, r.Credits(0, v))
		}
	}
}

func TestLocalInputPortEmitsNoCreditMessage(t *testing.T) {
	r := testRouter(t, baseConfig())
	pkt := NewPacket(1, 0, 9, 1, 0)
	deliver(r, 0, 0, 2, pkt) // injected at local port

	_, credits, _ := r.Tick()
	if len(credits) != 0 {
		t.Fatalf("local input produced credit messages: %+v", credits)
	}
}

func TestMultiFlitWormhole(t *testing.T) {
	r := testRouter(t, baseConfig())
	pkt := NewPacket(1, 0, 9, 4, 0)
	deliver(r, 1, 0, 2, pkt)

	var sent []*Flit
	for cycle := 0; cycle < 4; cycle++ {
		ems, _, _ := r.Tick()
		if len(ems) != 1 {
			t.Fatalf("cycle %d: %d emissions, want 1", cycle, len(ems))
		}
		sent = append(sent, r.Flits().At(ems[0].Flit))
	}
	for i, f := range sent {
		if f.Seq != i {
			t.Errorf("flit %d out of order: seq %d", i, f.Seq)
		}
		if f.VC != sent[0].VC {
			t.Errorf("flit %d switched VC mid-packet: %d vs %d", i, f.VC, sent[0].VC)
		}
	}
	if ems, _, _ := r.Tick(); len(ems) != 0 {
		t.Fatalf("empty router still emitting: %+v", ems)
	}
}

// The output VC is held until the tail departs: a second packet wanting
// the same output port must use a different downstream VC.
func TestOutputVCHeldUntilTail(t *testing.T) {
	r := testRouter(t, baseConfig())
	deliver(r, 1, 0, 2, NewPacket(1, 0, 9, 3, 0))
	deliver(r, 3, 0, 2, NewPacket(2, 1, 9, 3, 0))

	vcs := map[uint64]int{}
	for cycle := 0; cycle < 8; cycle++ {
		ems, _, _ := r.Tick()
		for _, e := range ems {
			f := r.Flits().At(e.Flit)
			if prev, ok := vcs[f.PacketID]; ok && prev != f.VC {
				t.Fatalf("packet %d changed downstream VC", f.PacketID)
			}
			vcs[f.PacketID] = f.VC
		}
	}
	if len(vcs) != 2 {
		t.Fatalf("expected both packets to progress, saw %v", vcs)
	}
	if vcs[1] == vcs[2] {
		t.Fatal("two concurrent packets shared one downstream VC")
	}
}

// With zero credits a flit must not be granted; it resumes after a credit
// returns.
func TestCreditBlocking(t *testing.T) {
	cfg := baseConfig()
	cfg.BufDepth = 1
	cfg.VCs = 1
	cfg.VirtualInputs = 1
	r := testRouter(t, cfg)

	pkt := NewPacket(1, 0, 9, 2, 0)
	deliver(r, 1, 0, 2, pkt[:1])

	ems, _, _ := r.Tick()
	if len(ems) != 1 {
		t.Fatalf("first flit blocked unexpectedly")
	}
	deliver(r, 1, 0, 2, pkt[1:])
	// The single downstream credit is now consumed.
	if r.Credits(2, 0) != 0 {
		t.Fatalf("credit accounting wrong: %d", r.Credits(2, 0))
	}
	if ems, _, _ := r.Tick(); len(ems) != 0 {
		t.Fatalf("flit advanced without credit: %+v", ems)
	}
	r.DeliverCredit(2, 0)
	if ems, _, _ := r.Tick(); len(ems) != 1 {
		t.Fatal("flit did not advance after credit return")
	}
}

func TestBufferOverflowPanics(t *testing.T) {
	cfg := baseConfig()
	cfg.BufDepth = 2
	r := testRouter(t, cfg)
	pkt := NewPacket(1, 0, 9, 3, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("buffer overflow did not panic")
		}
	}()
	deliver(r, 1, 0, 2, pkt) // 3 flits into depth-2 buffer
}

func TestInvalidRoutePanics(t *testing.T) {
	r := testRouter(t, baseConfig())
	id := r.Flits().Alloc()
	r.Flits().At(id).Route = 99
	defer func() {
		if recover() == nil {
			t.Fatal("invalid route did not panic")
		}
	}()
	r.DeliverFlit(1, 0, id)
}

// TestNewRefusesMisplacedRouteFuncs: a shared arena's records give every
// head's hop, so route funcs beside one would be ignored, and a
// standalone router's records need a NextDimFunc for the lookahead.
func TestNewRefusesMisplacedRouteFuncs(t *testing.T) {
	cfg := baseConfig()
	ports := make([]PortInfo, cfg.Ports)
	a, err := alloc.New(cfg.AllocKind, cfg.Alloc())
	if err != nil {
		t.Fatal(err)
	}
	nextDim := func(outPort, dst int) topology.Dim { return topology.DimX }
	vcRange := func(outPort, dst int) (int, int) { return 0, 1 }
	for name, build := range map[string]func(){
		"nextDim on a shared arena":  func() { New(0, cfg, ports, a, nextDim, nil, NewArena(1, 1, cfg, nil)) },
		"vcRange on a shared arena":  func() { New(0, cfg, ports, a, nil, vcRange, NewArena(1, 1, cfg, nil)) },
		"standalone without nextDim": func() { New(0, cfg, ports, a, nil, vcRange, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New did not panic", name)
				}
			}()
			build()
		}()
	}
}

func TestCreditOverflowPanics(t *testing.T) {
	r := testRouter(t, baseConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("credit overflow did not panic")
		}
	}()
	r.DeliverCredit(1, 0) // already at BufDepth
}

// Baseline (k=1) can move at most one flit per input port per cycle even
// with traffic in many VCs; VIX (k=2) moves two when they sit in
// different sub-groups.
func TestVIXDatapathParallelism(t *testing.T) {
	base := baseConfig()
	r := testRouter(t, base)
	deliver(r, 1, 0, 2, NewPacket(1, 0, 9, 1, 0))
	deliver(r, 1, 3, 4, NewPacket(2, 0, 8, 1, 0))
	ems, _, _ := r.Tick()
	if len(ems) != 1 {
		t.Fatalf("baseline moved %d flits from one port, want 1", len(ems))
	}

	vixCfg := baseConfig()
	vixCfg.VirtualInputs = 2
	vixCfg.Policy = PolicyBalanced
	r2 := testRouter(t, vixCfg)
	deliver(r2, 1, 0, 2, NewPacket(1, 0, 9, 1, 0)) // sub-group 0
	deliver(r2, 1, 3, 4, NewPacket(2, 0, 8, 1, 0)) // sub-group 1
	ems2, _, _ := r2.Tick()
	if len(ems2) != 2 {
		t.Fatalf("VIX moved %d flits from one port, want 2", len(ems2))
	}
}

// Body flits must never be presented for VC allocation: the head holds
// the output VC for the whole packet.
func TestBodyFlitsInheritOutputVC(t *testing.T) {
	r := testRouter(t, baseConfig())
	pkt := NewPacket(1, 0, 9, 5, 0)
	deliver(r, 2, 1, 3, pkt)
	seen := map[int]bool{}
	for i := 0; i < 5; i++ {
		ems, _, _ := r.Tick()
		if len(ems) != 1 {
			t.Fatalf("cycle %d: emissions %d", i, len(ems))
		}
		seen[r.Flits().At(ems[0].Flit).VC] = true
	}
	if len(seen) != 1 {
		t.Fatalf("packet used %d downstream VCs, want 1", len(seen))
	}
}

func TestOccupancyAndBufferSpace(t *testing.T) {
	r := testRouter(t, baseConfig())
	if r.Occupancy() != 0 {
		t.Fatalf("fresh router occupancy %d", r.Occupancy())
	}
	deliver(r, 1, 2, 3, NewPacket(1, 0, 9, 2, 0))
	if r.Occupancy() != 2 {
		t.Fatalf("occupancy %d, want 2", r.Occupancy())
	}
	if got := r.BufferSpace(1, 2); got != 3 {
		t.Fatalf("BufferSpace = %d, want 3", got)
	}
}

// Occupancy holds every ring to the grammar of packets in order, and a
// parked head to its record: an entry naming no live record, a flit type
// flipped in a slot so that a body flit fronts a VC no packet holds, a
// head behind its own packet's head (flits out of sequence), or a parked
// head whose record's destination moved, so that a VC it may take is
// free, is reported.
func TestOccupancyCrossChecksSlotsAgainstRecords(t *testing.T) {
	const (
		ivc = 1*6 + 2 // port 1, VC 2 at 6 VCs
		at  = ivc * 5 // its ring at 5 flits a VC
	)
	for name, c := range map[string]struct {
		size    int
		corrupt func(r *Router)
		want    string
	}{
		"id":    {1, func(r *Router) { r.view().buf[at] = NewSlot(FlitID(r.Flits().Cap()), HeadTail) }, "names no live record"},
		"freed": {1, func(r *Router) { r.Flits().Free(r.view().buf[at].Flit()) }, "names no live record"},
		"type":  {1, func(r *Router) { r.view().buf[at] = NewSlot(r.view().buf[at].Flit(), Body) }, "no packet is open there"},
		"seq":   {2, func(r *Router) { r.view().buf[at+1] = NewSlot(r.view().buf[at].Flit(), Head) }, "after packet 1's non-tail"},
		"dst":   {1, func(r *Router) { r.Flits().At(r.view().buf[at].Flit()).Dst++ }, "an admitted VC there is free"},
	} {
		t.Run(name, func(t *testing.T) {
			// Destination 9 may take VCs 0-2 at any output, any other 3-5.
			r := rangedTestRouter(t, baseConfig(), func(_, dst int) (int, int) {
				if dst == 9 {
					return 0, 3
				}
				return 3, 6
			})
			deliver(r, 1, 2, 3, NewPacket(1, 0, 9, c.size, 0))
			// Park the head on output 3 with VCs 0-2 held, as VA would.
			r.view().vaWait.Set(ivc)
			r.view().outPort[ivc] = 3
			r.view().busy[3] = 0b111
			if r.Occupancy() != c.size {
				t.Fatalf("occupancy %d, want %d", r.Occupancy(), c.size)
			}
			c.corrupt(r)
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, c.want) {
					t.Fatalf("Occupancy panicked with %q, want a report that %s", msg, c.want)
				}
			}()
			r.Occupancy()
		})
	}
}

// The standalone contract bench/solo.go and routerbench rely on: after a
// grant, Tick has written the granted output VC and counted the link hop
// in the emitted flit's record, for every flit of the packet.
func TestTickWritesVCAndHopsBackToTheRecord(t *testing.T) {
	r := testRouter(t, baseConfig())
	pkt := NewPacket(1, 0, 9, 3, 0)
	for _, f := range pkt {
		f.Hops = 4
	}
	deliver(r, 1, 0, 2, pkt)
	held := r.Credits(2, 0)
	for i := range pkt {
		ems, _, _ := r.Tick()
		if len(ems) != 1 {
			t.Fatalf("flit %d: %d emissions, want 1", i, len(ems))
		}
		e := ems[0]
		f := r.Flits().At(e.Flit)
		if f.VC != int(e.VC) {
			t.Errorf("flit %d: record has VC %d, emission VC %d", i, f.VC, e.VC)
		}
		if f.Hops != 5 {
			t.Errorf("flit %d: hops = %d, want 5", i, f.Hops)
		}
		// The granted VC is the one whose credit the grant consumed.
		if got := r.Credits(2, f.VC); got != held-i-1 {
			t.Errorf("flit %d: output VC %d holds %d credits, want %d", i, f.VC, got, held-i-1)
		}
	}
}

// Advance is the same tick without the write-back: the record stays as
// delivered and the emission carries the slot.
func TestAdvanceLeavesTheRecordCold(t *testing.T) {
	r := testRouter(t, baseConfig())
	deliver(r, 1, 3, 2, NewPacket(1, 0, 9, 1, 0))
	ems, _ := r.Advance(0, 0)
	if len(ems) != 1 || ems[0].Type != HeadTail || ems[0].OutPort != 2 {
		t.Fatalf("emission = %+v, want one head-tail flit through port 2", ems)
	}
	if f := r.Flits().At(ems[0].Flit); f.Hops != 0 || f.VC != 3 {
		t.Errorf("Advance touched the record: hops %d vc %d, want 0 and the delivered VC 3", f.Hops, f.VC)
	}
}

// DeliverFlit refuses a record that a buffer slot cannot name or that
// VC allocation could not use, instead of truncating it, and takes one
// at the bounds. Hops are not in the slot, so no hop count is refused.
func TestDeliverFlitRejectsFieldsBeyondTheSlot(t *testing.T) {
	for name, f := range map[string]Flit{
		"route": {Type: HeadTail, Route: 5, PacketSize: 1},
		"neg":   {Type: HeadTail, Route: -1, PacketSize: 1},
		"dst":   {Type: HeadTail, Dst: -1, Route: 2, PacketSize: 1},
		"seq":   {Type: Tail, Seq: 4, Route: 2, PacketSize: 4},
		"type":  {Type: HeadTail + 1, Route: 2, PacketSize: 1},
		"size":  {Type: HeadTail, Route: 2},
	} {
		t.Run(name, func(t *testing.T) {
			r := testRouter(t, baseConfig())
			id := r.Flits().Alloc()
			*r.Flits().At(id) = f
			defer func() {
				if recover() == nil {
					t.Fatalf("flit %+v delivered", f)
				}
			}()
			r.DeliverFlit(1, 0, id)
		})
	}
	r := testRouter(t, baseConfig())
	for vc, f := range []Flit{
		{Type: HeadTail, Dst: math.MaxInt, Route: 4, PacketSize: 1, Hops: math.MaxInt32},
		{Type: HeadTail, Route: 0, PacketSize: 1},
	} {
		id := r.Flits().Alloc()
		*r.Flits().At(id) = f
		r.DeliverFlit(1, vc, id)
	}
	if n := r.Occupancy(); n != 2 {
		t.Fatalf("occupancy %d after two deliveries at the bounds, want 2", n)
	}
}

// A Slot keeps every flit type beside every id up to MaxFlitID, apart
// from each other, in 4 bytes.
func TestSlotRoundTrip(t *testing.T) {
	if s := unsafe.Sizeof(Slot(0)); s != 4 {
		t.Fatalf("Slot is %d bytes, want 4", s)
	}
	if MaxFlitID != 1<<30-1 {
		t.Fatalf("MaxFlitID = %d, want 2^30-1", MaxFlitID)
	}
	for _, typ := range []FlitType{Head, Body, Tail, HeadTail} {
		for _, id := range []FlitID{0, 1, MaxFlitID - 1, MaxFlitID} {
			if s := NewSlot(id, typ); s.Flit() != id || s.Type() != typ {
				t.Errorf("NewSlot(%d, %v) reads back flit %d, %v", id, typ, s.Flit(), s.Type())
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := baseConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.BufDepth = 0
	if bad.Validate() == nil {
		t.Error("zero BufDepth accepted")
	}
	bad = good
	bad.Policy = ""
	if bad.Validate() == nil {
		t.Error("empty policy accepted")
	}
	bad = good
	bad.VirtualInputs = 9
	if bad.Validate() == nil {
		t.Error("VirtualInputs > VCs accepted")
	}
	bad = good
	bad.VCs = alloc.MaxVCs + 1 // the per-output busy mask is one word
	if bad.Validate() == nil {
		t.Error("VCs beyond one mask word accepted")
	}
}

// The int8 slab fields hold BufDepth and Ports; Validate rejects what
// does not fit rather than letting the arena wrap.
func TestConfigValidateNarrowFieldBounds(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(c *Config)
		ok     bool
	}{
		{"BufDepth 127", func(c *Config) { c.BufDepth = math.MaxInt8 }, true},
		{"BufDepth 128", func(c *Config) { c.BufDepth = math.MaxInt8 + 1 }, false},
		{"BufDepth -1", func(c *Config) { c.BufDepth = -1 }, false},
		{"Ports 127", func(c *Config) { c.Ports = math.MaxInt8 }, true},
		{"Ports 128", func(c *Config) { c.Ports = math.MaxInt8 + 1 }, false},
	} {
		cfg := baseConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestNewPacketShapes(t *testing.T) {
	single := NewPacket(5, 1, 2, 1, 10)
	if len(single) != 1 || single[0].Type != HeadTail {
		t.Fatalf("single-flit packet wrong: %+v", single)
	}
	multi := NewPacket(6, 1, 2, 4, 10)
	wantTypes := []FlitType{Head, Body, Body, Tail}
	for i, f := range multi {
		if f.Type != wantTypes[i] {
			t.Errorf("flit %d type %v, want %v", i, f.Type, wantTypes[i])
		}
		if f.Seq != i || f.PacketSize != 4 || f.CreateCycle != 10 {
			t.Errorf("flit %d metadata wrong: %+v", i, f)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("zero-size packet did not panic")
		}
	}()
	NewPacket(7, 1, 2, 0, 0)
}

func TestFlitTypePredicates(t *testing.T) {
	cases := []struct {
		ft         FlitType
		head, tail bool
		str        string
	}{
		{Head, true, false, "head"},
		{Body, false, false, "body"},
		{Tail, false, true, "tail"},
		{HeadTail, true, true, "headtail"},
	}
	for _, c := range cases {
		if c.ft.IsHead() != c.head || c.ft.IsTail() != c.tail {
			t.Errorf("%v predicates wrong", c.ft)
		}
		if c.ft.String() != c.str {
			t.Errorf("%v String() = %q", c.ft, c.ft.String())
		}
	}
}

// Non-speculative switch allocation delays a head flit by one cycle at
// each VA: the flit wins VA in one Tick and SA only in the next.
func TestNonSpeculativeDelaysHeadOneCycle(t *testing.T) {
	cfg := baseConfig()
	cfg.NonSpeculative = true
	r := testRouter(t, cfg)
	deliver(r, 1, 0, 2, NewPacket(1, 0, 9, 1, 0))

	ems, _, _ := r.Tick()
	if len(ems) != 0 {
		t.Fatalf("non-speculative head traversed in its VA cycle")
	}
	ems, _, _ = r.Tick()
	if len(ems) != 1 {
		t.Fatalf("head did not traverse in the cycle after VA: %+v", ems)
	}
}

// Speculative (default) allocation lets the head do VA and SA in the
// same cycle — the Figure 6b pipeline.
func TestSpeculativeHeadSameCycle(t *testing.T) {
	r := testRouter(t, baseConfig())
	deliver(r, 1, 0, 2, NewPacket(1, 0, 9, 1, 0))
	if ems, _, _ := r.Tick(); len(ems) != 1 {
		t.Fatalf("speculative head failed to traverse in VA cycle: %+v", ems)
	}
}

// Body flits are never delayed by the non-speculative rule: only the VA
// cycle itself is affected.
func TestNonSpeculativeBodyFlitsUnaffected(t *testing.T) {
	cfg := baseConfig()
	cfg.NonSpeculative = true
	r := testRouter(t, cfg)
	deliver(r, 1, 0, 2, NewPacket(1, 0, 9, 4, 0))

	var sent int
	for cycle := 0; cycle < 6; cycle++ {
		ems, _, _ := r.Tick()
		sent += len(ems)
	}
	// Cycle 0: VA only. Cycles 1-4: one flit each.
	if sent != 4 {
		t.Fatalf("sent %d flits in 6 cycles, want 4", sent)
	}
}

// TestTwoWordMasksRotateLikeTheDenseScan runs a 10-port, 8-VC router —
// 80 input VCs, so every mask spans two words — with ten heads contending
// for the eight downstream VCs of one output. With equal credits maxfree
// hands out VC 0, 1, 2, ... in visit order, so the assignment spells the
// order VC allocation walked the pending mask: it must be the dense
// scan's, ascending from the cycle mod 80 and wrapping, wherever the
// offset falls — inside the second word, on the word boundary, or below
// it. Occupancy's recount checks the masks against count/ovc every tick
// until the router drains.
func TestTwoWordMasksRotateLikeTheDenseScan(t *testing.T) {
	cfg := Config{
		Ports: 10, VCs: 8, VirtualInputs: 2, BufDepth: 4,
		AllocKind: alloc.KindSeparableIF, Policy: PolicyMaxFree,
	}
	contenders := []int{3, 8, 31, 59, 63, 64, 65, 72, 77, 79}
	const out, total = 2, 80
	for _, start := range []int{70, 64, 63, 0, 79, 65} {
		r := testRouter(t, cfg)
		r.ticks = int64(start) // Tick's clock, and so VA's offset
		for i, ivc := range contenders {
			deliver(r, ivc/cfg.VCs, ivc%cfg.VCs, out, NewPacket(uint64(i), 0, 9, 2, 0))
		}
		emitted := len(r.tickChecked(t))

		isContender := map[int]bool{}
		for _, ivc := range contenders {
			isContender[ivc] = true
		}
		next := int8(0)
		for i := 0; i < total; i++ {
			ivc := (start + i) % total
			if !isContender[ivc] {
				continue
			}
			want := next
			if next++; want >= int8(cfg.VCs) {
				want = -1 // the output's VCs ran out before the scan got here
			}
			// The first tick's one switch grant moved a head, not a tail,
			// so every VC allocated in it is still held.
			if r.view().ovc[ivc] != want {
				t.Errorf("start %d: ivc %d holds output VC %d, want %d", start, ivc, r.view().ovc[ivc], want)
			}
		}
		for tick := 0; r.arena.Busy(int(r.slot)); tick++ {
			if tick > 100 {
				t.Fatalf("start %d: router did not drain", start)
			}
			emitted += len(r.tickChecked(t))
		}
		if want := 2 * len(contenders); emitted != want {
			t.Errorf("start %d: %d flits emitted, want %d", start, emitted, want)
		}
	}
}

// tickChecked ticks the router and recounts its occupancy, which panics
// if the incremental masks disagree with the per-VC arrays.
func (r *Router) tickChecked(t *testing.T) []Emission {
	t.Helper()
	ems, _, quiesced := r.Tick()
	if occ := r.Occupancy(); (occ == 0) != quiesced {
		t.Fatalf("Tick reported quiesced=%v with %d flits buffered", quiesced, occ)
	}
	return ems
}

// arenaBytes sums what a's slabs hold: each slice field's length times
// its element size. Slice headers inside the elements (a RequestSet's)
// count as their header bytes, as the memory they view is another slab.
func arenaBytes(a *Arena) int {
	v := reflect.ValueOf(a).Elem()
	n := 0
	for i := range v.NumField() {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			n += f.Len() * int(f.Type().Elem().Size())
		}
	}
	return n
}

// TestArenaFootprintIsPinned holds the arena's bytes per router at the
// paper's geometry (5 ports, 6 VCs of 5 flits, k = 2): the slab bytes of
// a two-router arena less a one-router one, so the geometry tables the
// routers share drop out. Of if's 839 B, 600 B are the 4 B slots; only
// if-age keeps the 120 B of request ages. The request set, emission and
// credit scratch and the grant loop's crossbar-row mask are per lane, not
// per router (226 B per router while they were): a second lane costs the
// 242 B of one set, 5 emissions, 5 credits and a row word, whatever the
// router count.
func TestArenaFootprintIsPinned(t *testing.T) {
	const lanePin = 242
	for kind, pin := range map[alloc.Kind]int{alloc.KindSeparableIF: 839, alloc.KindSeparableAge: 959} {
		cfg := baseConfig()
		cfg.VirtualInputs, cfg.Policy, cfg.AllocKind = 2, PolicyBalanced, kind
		per := arenaBytes(NewArena(2, 1, cfg, nil)) - arenaBytes(NewArena(1, 1, cfg, nil))
		if per != pin {
			t.Errorf("%s: the arena holds %d B per router, pinned at %d B", kind, per, pin)
		}
		for _, routers := range []int{1, 3} {
			lane := arenaBytes(NewArena(routers, 2, cfg, nil)) - arenaBytes(NewArena(routers, 1, cfg, nil))
			if lane != lanePin {
				t.Errorf("%s: a second lane adds %d B to a %d-router arena, pinned at %d B", kind, lane, routers, lanePin)
			}
		}
	}
}

// TestRouterFootprintIsPinned holds what router.New allocates beside a
// shared arena, averaged over 1024 routers at 5 ports, 6 VCs and k = 2:
// the Router struct alone (48 B), since every per-router array — buffers,
// masks and port kinds — is a segment of the arena, and the request set
// and the emission and credit scratch are the arena's, per lane.
func TestRouterFootprintIsPinned(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector pads heap objects; the pin is a normal build's bytes")
	}
	const n, pin = 1024, 48
	cfg := baseConfig()
	cfg.VirtualInputs, cfg.Policy = 2, PolicyBalanced
	ports := make([]PortInfo, cfg.Ports)
	for p := range ports {
		ports[p] = PortInfo{Kind: topology.Link, Dim: topology.DimX}
	}
	a, err := alloc.New(cfg.AllocKind, cfg.Alloc())
	if err != nil {
		t.Fatal(err)
	}
	arena := NewArena(n, 1, cfg, nil) // no router ticks, so none asks the records
	keep := make([]*Router, n)
	least := uint64(1 << 63)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range keep {
			keep[i] = New(i, cfg, ports, a, nil, nil, arena)
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/n)
	}
	runtime.KeepAlive(keep)
	if least > pin {
		t.Errorf("router.New allocates %d B per router beside its arena, pinned at %d B", least, pin)
	} else {
		t.Logf("router.New allocates %d B per router beside its arena (pin %d B)", least, pin)
	}
}
