package alloc

import (
	"strings"
	"testing"
	"testing/quick"

	"vix/internal/sim"
)

// randomRequestSet builds a request set where each (port, vc) offers a
// request with probability p for a uniformly random output port.
func randomRequestSet(rng *sim.RNG, cfg Config, p float64) *RequestSet {
	rs := &RequestSet{Config: cfg}
	for port := 0; port < cfg.Ports; port++ {
		for vc := 0; vc < cfg.VCs; vc++ {
			if rng.Bernoulli(p) {
				rs.Requests = append(rs.Requests, Request{
					Port: port, VC: vc, OutPort: rng.Intn(cfg.Ports),
				})
			}
		}
	}
	return rs.Pack()
}

// MustNew is New for a kind and geometry the test knows are valid; it
// panics on error.
func MustNew(kind Kind, cfg Config) Allocator {
	a, err := New(kind, cfg)
	if err != nil {
		panic("alloc: MustNew: " + strings.TrimPrefix(err.Error(), "alloc: "))
	}
	return a
}

// allConfigs returns the crossbar geometries exercised by the paper:
// baseline, 1:2 VIX, and ideal VIX, at the three evaluated radices.
func allConfigs() []Config {
	var cfgs []Config
	for _, ports := range []int{5, 8, 10} {
		for _, vcs := range []int{4, 6} {
			for _, k := range []int{1, 2, vcs} {
				cfgs = append(cfgs, Config{Ports: ports, VCs: vcs, VirtualInputs: k})
			}
		}
	}
	return cfgs
}

func newAllocatorsFor(cfg Config) map[Kind]Allocator {
	m := map[Kind]Allocator{
		KindSeparableIF:    NewSeparableIF(cfg),
		KindWavefront:      MustNew(KindWavefront, cfg),
		KindAugmentingPath: MustNew(KindAugmentingPath, cfg),
		KindPacketChaining: MustNew(KindPacketChaining, cfg),
	}
	if cfg.VirtualInputs == cfg.VCs {
		m[KindIdeal] = MustNew(KindIdeal, cfg)
	}
	return m
}

// Property: every allocator produces a legal grant set on arbitrary
// request sets, across all crossbar geometries, over many cycles of
// evolving arbiter state.
func TestAllAllocatorsProduceValidGrants(t *testing.T) {
	rng := sim.NewRNG(101)
	for _, cfg := range allConfigs() {
		for kind, a := range newAllocatorsFor(cfg) {
			for cycle := 0; cycle < 200; cycle++ {
				rs := randomRequestSet(rng, cfg, 0.5)
				rs.Cycle = int64(cycle)
				grants := a.Allocate(rs)
				if err := Validate(rs, grants); err != nil {
					t.Fatalf("%s on %+v cycle %d: %v", kind, cfg, cycle, err)
				}
			}
		}
	}
}

// Property (quick): separable IF grant sets are valid for fuzzed request
// patterns encoded from raw quick-generated values.
func TestSeparableQuickValidity(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 2}
	a := NewSeparableIF(cfg)
	prop := func(seed uint64, density uint8) bool {
		rng := sim.NewRNG(seed)
		p := float64(density%100) / 100
		rs := randomRequestSet(rng, cfg, p)
		return Validate(rs, a.Allocate(rs)) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyRequestSet(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 2}
	for kind, a := range newAllocatorsFor(cfg) {
		rs := &RequestSet{Config: cfg}
		if got := a.Allocate(rs); len(got) != 0 {
			t.Errorf("%s: empty request set produced %d grants", kind, len(got))
		}
	}
}

// With a single request, every allocator must grant it.
func TestSingleRequestAlwaysGranted(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 2}
	for kind, a := range newAllocatorsFor(cfg) {
		rs := (&RequestSet{Config: cfg, Requests: []Request{{Port: 2, VC: 4, OutPort: 3}}}).Pack()
		grants := a.Allocate(rs)
		if len(grants) != 1 {
			t.Errorf("%s: single request produced %d grants", kind, len(grants))
			continue
		}
		g := grants[0]
		if g.IVC != 2*cfg.VCs+4 || g.OutPort != 3 {
			t.Errorf("%s: wrong grant %+v", kind, g)
		}
	}
}

// bruteForceMaxMatching computes the maximum matching size between rows
// and outputs by exhaustive search (small instances only).
func bruteForceMaxMatching(cfg Config, rs *RequestSet) int {
	edges := make(map[int]map[int]bool)
	for _, r := range rs.Requests {
		row := cfg.Row(r.Port, r.VC)
		if edges[row] == nil {
			edges[row] = make(map[int]bool)
		}
		edges[row][r.OutPort] = true
	}
	rows := make([]int, 0, len(edges))
	for row := range edges {
		rows = append(rows, row)
	}
	usedOut := make(map[int]bool)
	var solve func(i int) int
	solve = func(i int) int {
		if i == len(rows) {
			return 0
		}
		best := solve(i + 1) // skip this row
		for out := range edges[rows[i]] {
			if usedOut[out] {
				continue
			}
			usedOut[out] = true
			if v := 1 + solve(i+1); v > best {
				best = v
			}
			usedOut[out] = false
		}
		return best
	}
	return solve(0)
}

// AP must achieve the maximum matching size on the row-level request
// graph, every cycle.
func TestAugmentingPathIsMaximum(t *testing.T) {
	rng := sim.NewRNG(7)
	for _, cfg := range []Config{
		{Ports: 4, VCs: 4, VirtualInputs: 1},
		{Ports: 5, VCs: 6, VirtualInputs: 2},
	} {
		a := MustNew(KindAugmentingPath, cfg)
		for i := 0; i < 150; i++ {
			rs := randomRequestSet(rng, cfg, 0.4)
			grants := a.Allocate(rs)
			want := bruteForceMaxMatching(cfg, rs)
			if len(grants) != want {
				t.Fatalf("%+v: AP matched %d, maximum is %d", cfg, len(grants), want)
			}
		}
	}
}

// Wavefront must produce a maximal matching: no request can be added to
// the grant set without conflicting.
func TestWavefrontIsMaximal(t *testing.T) {
	rng := sim.NewRNG(8)
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 1}
	w := MustNew(KindWavefront, cfg)
	for i := 0; i < 300; i++ {
		rs := randomRequestSet(rng, cfg, 0.4)
		rs.Cycle = int64(i)
		grants := w.Allocate(rs)
		rowUsed := make(map[int]bool)
		outUsed := make(map[int]bool)
		for _, g := range grants {
			rowUsed[g.Row] = true
			outUsed[g.OutPort] = true
		}
		for _, r := range rs.Requests {
			if !rowUsed[cfg.Row(r.Port, r.VC)] && !outUsed[r.OutPort] {
				t.Fatalf("cycle %d: wavefront grant set not maximal: request %+v addable", i, r)
			}
		}
	}
}

// Statistical ordering of matching efficiency over random traffic:
// ideal >= AP >= WF >= IF (baseline geometry for the last three).
func TestAllocatorEfficiencyOrdering(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 1}
	idealCfg := Config{Ports: 5, VCs: 6, VirtualInputs: 6}
	ifAlloc := NewSeparableIF(cfg)
	wf := MustNew(KindWavefront, cfg)
	ap := MustNew(KindAugmentingPath, cfg)
	ideal := MustNew(KindIdeal, idealCfg)

	rngs := [4]*sim.RNG{sim.NewRNG(9), sim.NewRNG(9), sim.NewRNG(9), sim.NewRNG(9)}
	var totIF, totWF, totAP, totIdeal int
	for i := 0; i < 2000; i++ {
		totIF += len(ifAlloc.Allocate(randomRequestSet(rngs[0], cfg, 0.5)))
		rsWF := randomRequestSet(rngs[1], cfg, 0.5)
		rsWF.Cycle = int64(i)
		totWF += len(wf.Allocate(rsWF))
		totAP += len(ap.Allocate(randomRequestSet(rngs[2], cfg, 0.5)))
		totIdeal += len(ideal.Allocate(randomRequestSet(rngs[3], idealCfg, 0.5)))
	}
	if !(totIdeal >= totAP && totAP >= totWF && totWF >= totIF) {
		t.Fatalf("efficiency ordering violated: ideal=%d ap=%d wf=%d if=%d", totIdeal, totAP, totWF, totIF)
	}
	if totAP <= totIF {
		t.Fatalf("AP (%d) should beat IF (%d) on random traffic", totAP, totIF)
	}
}

// VIX (separable IF with k=2) must outperform baseline IF on identical
// random traffic — the headline claim at allocator level.
func TestVIXBeatsBaselineSeparable(t *testing.T) {
	base := Config{Ports: 5, VCs: 6, VirtualInputs: 1}
	vixc := Config{Ports: 5, VCs: 6, VirtualInputs: 2}
	ifAlloc := NewSeparableIF(base)
	vix := NewSeparableIF(vixc)
	rngA, rngB := sim.NewRNG(10), sim.NewRNG(10)
	var totIF, totVIX int
	for i := 0; i < 2000; i++ {
		totIF += len(ifAlloc.Allocate(randomRequestSet(rngA, base, 0.5)))
		totVIX += len(vix.Allocate(randomRequestSet(rngB, vixc, 0.5)))
	}
	if float64(totVIX) < 1.05*float64(totIF) {
		t.Fatalf("VIX=%d not at least 5%% over IF=%d on random traffic", totVIX, totIF)
	}
}

// Allocators are deterministic: two instances fed identical request
// streams produce identical grants.
func TestAllocatorDeterminism(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 2}
	for _, kind := range []Kind{KindSeparableIF, KindWavefront, KindAugmentingPath, KindPacketChaining} {
		a := MustNew(kind, cfg)
		b := MustNew(kind, cfg)
		rngA, rngB := sim.NewRNG(12), sim.NewRNG(12)
		for i := 0; i < 100; i++ {
			rsA := randomRequestSet(rngA, cfg, 0.5)
			rsB := randomRequestSet(rngB, cfg, 0.5)
			rsA.Cycle, rsB.Cycle = int64(i), int64(i)
			ga, gb := a.Allocate(rsA), b.Allocate(rsB)
			if len(ga) != len(gb) {
				t.Fatalf("%s: cycle %d grant counts differ: %d vs %d", kind, i, len(ga), len(gb))
			}
			for j := range ga {
				if ga[j] != gb[j] {
					t.Fatalf("%s: cycle %d grant %d differs: %+v vs %+v", kind, i, j, ga[j], gb[j])
				}
			}
		}
	}
}

// Reset restores initial behaviour.
func TestAllocatorReset(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 2}
	rng := sim.NewRNG(13)
	warm := make([]*RequestSet, 50)
	for i := range warm {
		warm[i] = randomRequestSet(rng, cfg, 0.5)
		warm[i].Cycle = int64(i + 1)
	}
	probe := randomRequestSet(rng, cfg, 0.6)
	for kind, a := range newAllocatorsFor(cfg) {
		fresh := MustNew(kind, cfg)
		want := fresh.Allocate(probe)
		for _, rs := range warm {
			a.Allocate(rs)
		}
		a.Reset()
		got := a.Allocate(probe)
		if len(got) != len(want) {
			t.Errorf("%s: after Reset grants=%d, fresh grants=%d", kind, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: after Reset grant %d = %+v, fresh = %+v", kind, i, got[i], want[i])
			}
		}
	}
}

func TestValidateRejectsIllegalGrants(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 1}
	requests := []Request{
		{Port: 0, VC: 0, OutPort: 1},
		{Port: 0, VC: 1, OutPort: 2},
		{Port: 1, VC: 0, OutPort: 1},
	}
	cases := []struct {
		name     string
		requests []Request // nil: the three above
		grants   []Grant
	}{
		{"phantom grant", nil, []Grant{{IVC: 9, OutPort: 3, Row: 1}}},
		{"negative input VC", nil, []Grant{{IVC: -1, OutPort: 1, Row: 0}}},
		{"input VC past the last", nil, []Grant{{IVC: 30, OutPort: 1, Row: 5}}},
		{"wrong row", nil, []Grant{{IVC: 0, OutPort: 1, Row: 4}}},
		{"duplicate row", nil, []Grant{
			{IVC: 0, OutPort: 1, Row: 0},
			{IVC: 1, OutPort: 2, Row: 0},
		}},
		{"duplicate VC", nil, []Grant{
			{IVC: 0, OutPort: 1, Row: 0},
			{IVC: 0, OutPort: 1, Row: 0},
		}},
		{"duplicate output", nil, []Grant{
			{IVC: 0, OutPort: 1, Row: 0},
			{IVC: 6, OutPort: 1, Row: 1},
		}},
		// Request (1, 0) asked for output 1, not 2.
		{"mismatched output", nil, []Grant{
			{IVC: 0, OutPort: 1, Row: 0},
			{IVC: 6, OutPort: 2, Row: 1},
		}},
		// A malformed list is refused whatever the grants.
		{"request port out of range", []Request{{Port: 5, VC: 0, OutPort: 1}}, nil},
		{"request VC out of range", []Request{{Port: 0, VC: 6, OutPort: 1}}, nil},
		{"negative request VC", []Request{{Port: 1, VC: -1, OutPort: 1}}, nil},
		{"request output out of range", []Request{{Port: 0, VC: 0, OutPort: 5}}, nil},
		{"VC listed twice", []Request{
			{Port: 0, VC: 1, OutPort: 1},
			{Port: 0, VC: 1, OutPort: 2},
		}, nil},
	}
	for _, c := range cases {
		rs := &RequestSet{Config: cfg, Requests: requests}
		if c.requests != nil {
			rs.Requests = c.requests
		}
		if Validate(rs, c.grants) == nil {
			t.Errorf("%s: Validate accepted it", c.name)
		}
	}
	// A geometry Config.Validate refuses is refused, not indexed past the marks.
	huge := &RequestSet{Config: Config{Ports: 200, VCs: MaxVCs, VirtualInputs: 1}, Requests: []Request{{Port: 150, OutPort: 0}}}
	if Validate(huge, nil) == nil {
		t.Error("Validate accepted a geometry Config.Validate refuses")
	}
	legal := []Grant{{IVC: 6, OutPort: 1, Row: 1}, {IVC: 1, OutPort: 2, Row: 0}}
	if err := Validate(&RequestSet{Config: cfg, Requests: requests}, legal); err != nil {
		t.Errorf("Validate refused a legal allocation: %v", err)
	}
}

// Validate allocates nothing, at the paper's 5x6x2 router and at the
// largest geometry Config.Validate admits (127 ports of 64 VCs, a row per
// VC), with every VC requesting and every output granted.
func TestValidateAllocatesNothing(t *testing.T) {
	for _, cfg := range []Config{
		{Ports: 5, VCs: 6, VirtualInputs: 2},
		{Ports: MaxPorts, VCs: MaxVCs, VirtualInputs: MaxVCs},
	} {
		rs := &RequestSet{Config: cfg}
		var grants []Grant
		for p := 0; p < cfg.Ports; p++ {
			for v := 0; v < cfg.VCs; v++ {
				rs.Requests = append(rs.Requests, Request{Port: p, VC: v, OutPort: (p + v) % cfg.Ports})
			}
			grants = append(grants, Grant{IVC: p * cfg.VCs, OutPort: p, Row: cfg.Row(p, 0)})
		}
		if err := Validate(rs, grants); err != nil {
			t.Fatalf("%+v: Validate refused a legal allocation: %v", cfg, err)
		}
		if n := testing.AllocsPerRun(10, func() { Validate(rs, grants) }); n != 0 {
			t.Errorf("%+v: Validate allocates %v times per call, want 0", cfg, n)
		}
	}
}

// Pack refuses what Validate refuses in a list — a request out of range
// or a VC listed twice — and packs a list in any order.
func TestPackRefusesMalformedLists(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 2}
	for _, c := range []struct {
		name     string
		requests []Request
	}{
		{"port out of range", []Request{{Port: 5, VC: 0, OutPort: 1}}},
		{"VC out of range", []Request{{Port: 0, VC: 6, OutPort: 1}}},
		{"output out of range", []Request{{Port: 0, VC: 0, OutPort: -1}}},
		{"VC listed twice", []Request{{Port: 2, VC: 3, OutPort: 1}, {Port: 0, VC: 0, OutPort: 4}, {Port: 2, VC: 3, OutPort: 0}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Pack accepted %+v", c.name, c.requests)
				}
			}()
			(&RequestSet{Config: cfg, Requests: c.requests}).Pack()
		}()
	}
	rs := (&RequestSet{Config: cfg, Requests: []Request{
		{Port: 4, VC: 5, OutPort: 0, Age: 7},
		{Port: 0, VC: 2, OutPort: 3},
		{Port: 2, VC: 1, OutPort: 4, Age: 1},
	}}).Pack()
	want := []uint64{1<<29 | 1<<2 | 1<<13}
	if len(rs.Ready) != 1 || rs.Ready[0] != want[0] {
		t.Errorf("Ready %#x, want %#x", rs.Ready, want)
	}
	if rs.Out[29] != 0 || rs.Age[29] != 7 || rs.Out[2] != 3 || rs.Out[13] != 4 || rs.Age[13] != 1 {
		t.Errorf("Out %v, Age %v: not the listed requests", rs.Out, rs.Age)
	}
	if err := Validate(rs, NewSeparableIF(cfg).Allocate(rs)); err != nil {
		t.Error(err)
	}
}

func TestConfigGeometry(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 2}
	if cfg.Rows() != 10 {
		t.Errorf("Rows() = %d, want 10", cfg.Rows())
	}
	if cfg.GroupSize() != 3 {
		t.Errorf("GroupSize() = %d, want 3", cfg.GroupSize())
	}
	for vc, wantGroup := range []int{0, 0, 0, 1, 1, 1} {
		if g := cfg.Subgroup(vc); g != wantGroup {
			t.Errorf("Subgroup(%d) = %d, want %d", vc, g, wantGroup)
		}
	}
	for vc, wantSlot := range []int{0, 1, 2, 0, 1, 2} {
		if s := cfg.Slot(vc); s != wantSlot {
			t.Errorf("Slot(%d) = %d, want %d", vc, s, wantSlot)
		}
	}
	if r := cfg.Row(3, 4); r != 3*2+1 {
		t.Errorf("Row(3,4) = %d, want 7", r)
	}

	// Uneven partition: 5 VCs over 2 virtual inputs -> groups of 3 and 2.
	odd := Config{Ports: 4, VCs: 5, VirtualInputs: 2}
	if odd.GroupSize() != 3 {
		t.Errorf("odd GroupSize() = %d, want 3", odd.GroupSize())
	}
	for vc, wantGroup := range []int{0, 0, 0, 1, 1} {
		if g := odd.Subgroup(vc); g != wantGroup {
			t.Errorf("odd Subgroup(%d) = %d, want %d", vc, g, wantGroup)
		}
	}

	// Per-VC rows.
	ideal := Config{Ports: 5, VCs: 6, VirtualInputs: 6}
	if ideal.GroupSize() != 1 {
		t.Errorf("ideal GroupSize() = %d, want 1", ideal.GroupSize())
	}
	for vc := 0; vc < 6; vc++ {
		if ideal.Subgroup(vc) != vc {
			t.Errorf("ideal Subgroup(%d) = %d", vc, ideal.Subgroup(vc))
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Ports: 0, VCs: 6, VirtualInputs: 1},
		{Ports: 5, VCs: 0, VirtualInputs: 1},
		{Ports: 5, VCs: 6, VirtualInputs: 0},
		{Ports: 5, VCs: 2, VirtualInputs: 3},
	}
	for _, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("Validate accepted invalid config %+v", cfg)
		}
	}
	if err := (Config{Ports: 5, VCs: 6, VirtualInputs: 2}).Validate(); err != nil {
		t.Errorf("Validate rejected valid config: %v", err)
	}
}

// TestVCsBeyondArbiterWordRejected pins the one width the packed request
// words assume: a port's VCs share a 64-bit word, so VCs > MaxVCs is an
// error from Validate and New, and an "alloc: "-prefixed panic from
// NewSeparableIF, never a silently truncated shift.
func TestVCsBeyondArbiterWordRejected(t *testing.T) {
	if err := (Config{Ports: 2, VCs: MaxVCs, VirtualInputs: 1}).Validate(); err != nil {
		t.Errorf("Validate rejected VCs == MaxVCs: %v", err)
	}
	wide := Config{Ports: 2, VCs: MaxVCs + 1, VirtualInputs: 2}
	if err := wide.Validate(); err == nil || !strings.HasPrefix(err.Error(), "alloc: ") {
		t.Errorf("Validate(%+v) = %v, want an alloc: error", wide, err)
	}
	if _, err := New(KindSeparableIF, wide); err == nil {
		t.Errorf("New accepted %+v", wide)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.HasPrefix(msg, "alloc: invalid config: ") {
			t.Errorf("NewSeparableIF(%+v): recovered %q, want an alloc: invalid config panic", wide, msg)
		}
	}()
	NewSeparableIF(wide)
}

// TestSingleGeometryKinds pins the two kinds defined on one geometry
// only: ideal needs a crossbar row per VC, sparoflo the conventional
// crossbar. Each states its condition once, in CheckGeometry, and New
// returns it as an error instead of building an allocator that grants a
// row twice.
func TestSingleGeometryKinds(t *testing.T) {
	for _, c := range []struct {
		kind      Kind
		good, bad Config
		want      string
	}{
		{KindIdeal, Config{Ports: 5, VCs: 6, VirtualInputs: 6}, Config{Ports: 5, VCs: 6, VirtualInputs: 2},
			"ideal allocator needs VirtualInputs == VCs (per-VC crossbar rows), got 2 != 6"},
		{KindSparoflo, Config{Ports: 5, VCs: 6, VirtualInputs: 1}, Config{Ports: 5, VCs: 6, VirtualInputs: 2},
			"sparoflo is defined on the conventional crossbar (VirtualInputs == 1), got 2"},
	} {
		if a, err := New(c.kind, c.good); err != nil || a.Name() != string(c.kind) {
			t.Errorf("New(%s, %+v) = %v, %v", c.kind, c.good, a, err)
		}
		if _, err := New(c.kind, c.bad); err == nil || err.Error() != "alloc: "+c.want {
			t.Errorf("New(%s, %+v) error = %v, want %q", c.kind, c.bad, err, "alloc: "+c.want)
		}
	}
}

// TestRegistry walks the registry table: every listed kind is Known,
// constructible on its geometry, and reports its own kind as Name() —
// the string result tables are keyed on.
func TestRegistry(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 2}
	for _, kind := range Kinds() {
		c := cfg
		switch kind {
		case KindIdeal:
			c.VirtualInputs = c.VCs
		case KindSparoflo:
			c.VirtualInputs = 1
		}
		if !Known(kind) {
			t.Errorf("Kinds() lists %q but Known rejects it", kind)
		}
		a, err := New(kind, c)
		if err != nil {
			t.Errorf("New(%s) failed: %v", kind, err)
			continue
		}
		if a.Name() != string(kind) {
			t.Errorf("New(%s).Name() = %q, want the kind's own string", kind, a.Name())
		}
	}
	if _, err := New(KindIdeal, cfg); err == nil {
		t.Error("New(ideal) accepted VirtualInputs != VCs")
	}
	if _, err := New(KindIdeal, Config{Ports: 5, VCs: 6, VirtualInputs: 6}); err != nil {
		t.Errorf("New(ideal) rejected per-VC geometry: %v", err)
	}
	if _, err := New("bogus", cfg); err == nil {
		t.Error("New accepted unknown kind")
	}
	if _, err := New(KindSeparableIF, Config{}); err == nil {
		t.Error("New accepted zero config")
	}
	if got := len(Kinds()); got != 8 {
		t.Errorf("Kinds() lists %d kinds, want 8", got)
	}
}

func TestInterleavedPartitionGeometry(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 2, Partition: Interleaved}
	for vc, wantGroup := range []int{0, 1, 0, 1, 0, 1} {
		if g := cfg.Subgroup(vc); g != wantGroup {
			t.Errorf("interleaved Subgroup(%d) = %d, want %d", vc, g, wantGroup)
		}
	}
	for vc, wantSlot := range []int{0, 0, 1, 1, 2, 2} {
		if s := cfg.Slot(vc); s != wantSlot {
			t.Errorf("interleaved Slot(%d) = %d, want %d", vc, s, wantSlot)
		}
	}
	// Uneven interleave: 5 VCs over 2 groups.
	odd := Config{Ports: 4, VCs: 5, VirtualInputs: 2, Partition: Interleaved}
	for vc := 0; vc < 5; vc++ {
		if s := odd.Slot(vc); s < 0 || s >= odd.GroupSize() {
			t.Errorf("interleaved odd Slot(%d) = %d outside [0,%d)", vc, s, odd.GroupSize())
		}
	}
}

// (Subgroup, Slot) is injective under both partitions: no two VCs of a
// port share an arbiter request line.
func TestPartitionInjective(t *testing.T) {
	for _, part := range []Partition{Contiguous, Interleaved} {
		for _, vcs := range []int{2, 3, 4, 5, 6, 8} {
			for k := 1; k <= vcs; k++ {
				cfg := Config{Ports: 4, VCs: vcs, VirtualInputs: k, Partition: part}
				seen := map[[2]int]int{}
				for vc := 0; vc < vcs; vc++ {
					key := [2]int{cfg.Subgroup(vc), cfg.Slot(vc)}
					if prev, dup := seen[key]; dup {
						t.Fatalf("partition %d v=%d k=%d: VCs %d and %d share line %v", part, vcs, k, prev, vc, key)
					}
					seen[key] = vc
					if g := cfg.Subgroup(vc); g < 0 || g >= k {
						t.Fatalf("Subgroup(%d) = %d outside [0,%d)", vc, g, k)
					}
				}
			}
		}
	}
}

// All allocators stay valid with the interleaved partition.
func TestAllocatorsValidWithInterleaved(t *testing.T) {
	rng := sim.NewRNG(55)
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 2, Partition: Interleaved}
	for kind, a := range newAllocatorsFor(cfg) {
		for cycle := 0; cycle < 150; cycle++ {
			rs := randomRequestSet(rng, cfg, 0.5)
			rs.Cycle = int64(cycle)
			if err := Validate(rs, a.Allocate(rs)); err != nil {
				t.Fatalf("%s interleaved: %v", kind, err)
			}
		}
	}
}

// Property (quick): wavefront and maximum-matching grant sets are valid
// for fuzzed request patterns and densities.
func TestWavefrontQuickValidity(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 2}
	w := MustNew(KindWavefront, cfg)
	prop := func(seed uint64, density uint8) bool {
		rng := sim.NewRNG(seed)
		rs := randomRequestSet(rng, cfg, float64(density%100)/100)
		return Validate(rs, w.Allocate(rs)) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAugmentingPathQuickValidity(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 2}
	a := MustNew(KindAugmentingPath, cfg)
	prop := func(seed uint64, density uint8) bool {
		rng := sim.NewRNG(seed)
		rs := randomRequestSet(rng, cfg, float64(density%100)/100)
		return Validate(rs, a.Allocate(rs)) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property (quick): the age-aware allocator is valid under fuzzed ages.
func TestAgeQuickValidity(t *testing.T) {
	cfg := Config{Ports: 5, VCs: 6, VirtualInputs: 2}
	a := MustNew(KindSeparableAge, cfg)
	prop := func(seed uint64, density, ageSpread uint8) bool {
		rng := sim.NewRNG(seed)
		rs := randomRequestSet(rng, cfg, float64(density%100)/100)
		spread := int(ageSpread)%50 + 1
		for i := range rs.Requests {
			rs.Requests[i].Age = rng.Intn(spread)
		}
		rs.Pack()
		return Validate(rs, a.Allocate(rs)) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
