package alloc

import "testing"

// Mesh port conventions used by the paper's figures.
const (
	local = 0
	east  = 1
	west  = 2
	north = 3
	south = 4
)

// Figure 4: a 5-port mesh router with 4 VCs. The West port holds a packet
// in VC0 requesting Local and a packet in VC2 requesting East. Without
// virtual inputs only one flit transfers; with 1:2 VIX (VC0 in sub-group
// 0, VC2 in sub-group 1) both transfer in the same cycle.
func TestFigure4InputPortConstraint(t *testing.T) {
	requests := []Request{
		{Port: west, VC: 0, OutPort: local},
		{Port: west, VC: 2, OutPort: east},
	}

	base := Config{Ports: 5, VCs: 4, VirtualInputs: 1}
	baseline := NewSeparableIF(base)
	got := baseline.Allocate((&RequestSet{Config: base, Requests: requests}).Pack())
	if len(got) != 1 {
		t.Fatalf("baseline granted %d flits from one port, want exactly 1", len(got))
	}

	vixCfg := Config{Ports: 5, VCs: 4, VirtualInputs: 2}
	vix := NewSeparableIF(vixCfg)
	vixRS := (&RequestSet{Config: vixCfg, Requests: requests}).Pack()
	got = vix.Allocate(vixRS)
	if len(got) != 2 {
		t.Fatalf("VIX granted %d flits, want 2 (both VCs of the West port)", len(got))
	}
	outs := map[int]bool{}
	for _, g := range got {
		if p := g.IVC / vixCfg.VCs; p != west {
			t.Fatalf("unexpected grant port %d", p)
		}
		outs[g.OutPort] = true
	}
	if !outs[local] || !outs[east] {
		t.Fatalf("VIX grants cover outputs %v, want Local and East", outs)
	}
}

// Figure 5: without virtual inputs, the West and South input arbiters can
// both pick East, so only one flit transfers even though requests for
// North exist at South. With VIX the South port's two virtual inputs
// expose both the East and North requests, enabling three transfers.
//
// The scenario: West VC0 -> East; South VC0 -> East, South VC3 -> North;
// North VC0 -> East (to give East persistent contention). We check grant
// counts, which do not depend on which arbiter pointer positions the
// round-robin state happens to be in: baseline can grant at most one flit
// per input port and one per output, VIX can grant West->East and both
// South rows.
func TestFigure5MatchingEfficiency(t *testing.T) {
	requests := []Request{
		{Port: west, VC: 0, OutPort: east},
		{Port: south, VC: 0, OutPort: east},
		{Port: south, VC: 3, OutPort: north},
	}

	vixCfg := Config{Ports: 5, VCs: 4, VirtualInputs: 2}
	vix := NewSeparableIF(vixCfg)
	got := vix.Allocate((&RequestSet{Config: vixCfg, Requests: requests}).Pack())
	// VIX exposes South VC3 (sub-group 1) separately, so North is always
	// granted and East goes to one of its two requestors: 2 grants
	// minimum, and on this request set exactly 2 outputs are grantable.
	if len(got) != 2 {
		t.Fatalf("VIX granted %d, want 2 (East plus North)", len(got))
	}
	outs := map[int]bool{}
	for _, g := range got {
		outs[g.OutPort] = true
	}
	if !outs[north] {
		t.Fatal("VIX failed to grant North despite a conflict-free request")
	}
	if !outs[east] {
		t.Fatal("VIX failed to grant East")
	}

	// Baseline: if South's input arbiter picks VC0 (East), North idles and
	// only one flit transfers. Demonstrate that this uncoordinated outcome
	// actually occurs for some arbiter state.
	base := Config{Ports: 5, VCs: 4, VirtualInputs: 1}
	baseline := NewSeparableIF(base)
	sawUncoordinated := false
	for i := 0; i < 8; i++ { // cycle arbiter pointers through all states
		g := baseline.Allocate((&RequestSet{Config: base, Requests: requests}).Pack())
		if err := Validate((&RequestSet{Config: base, Requests: requests}).Pack(), g); err != nil {
			t.Fatal(err)
		}
		if len(g) == 1 {
			sawUncoordinated = true
		}
		if len(g) > 2 {
			t.Fatalf("baseline granted %d flits, impossible for this request set", len(g))
		}
	}
	if !sawUncoordinated {
		t.Fatal("baseline separable allocator never exhibited the uncoordinated 1-grant outcome")
	}
}

// The paper: "In one extreme, if we connect all the input VCs of an input
// port to the VIX, we can not only achieve optimal matching but also
// guarantee optimal switch allocation." Verify the ideal allocator serves
// every output with at least one request.
func TestIdealServesEveryRequestedOutput(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 6}
	id := MustNew(KindIdeal, cfg)
	rs := (&RequestSet{Config: cfg, Requests: []Request{
		{Port: 0, VC: 0, OutPort: 0},
		{Port: 0, VC: 1, OutPort: 1},
		{Port: 0, VC: 2, OutPort: 2},
		{Port: 0, VC: 3, OutPort: 3},
		{Port: 0, VC: 4, OutPort: 4},
		{Port: 1, VC: 0, OutPort: 4},
	}}).Pack()
	grants := id.Allocate(rs)
	if err := Validate(rs, grants); err != nil {
		t.Fatal(err)
	}
	if len(grants) != 5 {
		t.Fatalf("ideal granted %d outputs, want all 5 (one input port feeding all)", len(grants))
	}
}

// The input-port constraint: baseline (k=1) can never grant two VCs of
// the same input port, no matter the allocator.
func TestBaselineInputPortConstraint(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 1}
	rs := (&RequestSet{Config: cfg, Requests: []Request{
		{Port: 2, VC: 0, OutPort: 0},
		{Port: 2, VC: 1, OutPort: 1},
		{Port: 2, VC: 2, OutPort: 3},
	}}).Pack()
	for kind, a := range newAllocatorsFor(cfg) {
		grants := a.Allocate(rs)
		if len(grants) != 1 {
			t.Errorf("%s: granted %d flits from one port with k=1, want 1", kind, len(grants))
		}
	}
}

// With k=2, at most two flits per input port per cycle, and they must
// come from different sub-groups.
func TestVIXTwoFlitsPerPortLimit(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 2}
	rs := (&RequestSet{Config: cfg, Requests: []Request{
		{Port: 2, VC: 0, OutPort: 0}, // sub-group 0
		{Port: 2, VC: 1, OutPort: 1}, // sub-group 0
		{Port: 2, VC: 3, OutPort: 3}, // sub-group 1
		{Port: 2, VC: 4, OutPort: 4}, // sub-group 1
	}}).Pack()
	for kind, a := range newAllocatorsFor(cfg) {
		grants := a.Allocate(rs)
		if len(grants) != 2 {
			t.Errorf("%s: granted %d flits, want exactly 2 (one per virtual input)", kind, len(grants))
			continue
		}
		groups := map[int]bool{}
		for _, g := range grants {
			groups[cfg.Subgroup(g.IVC%cfg.VCs)] = true
		}
		if len(groups) != 2 {
			t.Errorf("%s: both grants from sub-groups %v, want one from each", kind, groups)
		}
	}
}
