package config

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vix/internal/alloc"
	"vix/internal/network"
	"vix/internal/traffic"
)

// TestValidateAcceptsDefaults: the documented default experiment
// validates, and so does one that leaves every field with a default at
// its zero value — which Build resolves to the same network. Only the
// load and the measurement window have no default: the zero Experiment
// is two findings.
func TestValidateAcceptsDefaults(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
	sparse := Experiment{InjectionRate: 0.05, Measure: 6000}
	if err := sparse.Validate(); err != nil {
		t.Fatalf("experiment of defaults invalid: %v", err)
	}
	got, err := sparse.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Default().Build()
	if err != nil {
		t.Fatal(err)
	}
	if got.Router != want.Router || got.Topology.Name != want.Topology.Name || got.Pattern.Name() != want.Pattern.Name() {
		t.Errorf("zero fields built %+v on %s, Default() builds %+v on %s", got.Router, got.Topology.Name, want.Router, want.Topology.Name)
	}
	var ve ValidationError
	if err := (Experiment{}).Validate(); !errors.As(err, &ve) || len(ve) != 2 || ve[0].Field != "injection_rate" || ve[1].Field != "measure" {
		t.Errorf("zero experiment: Validate = %v, want injection_rate and measure findings", err)
	}
}

// specGrid is an enumerated grid of geometries, patterns, allocators and
// crossbar shapes, each point busy enough that every node draws
// destinations and short enough to run.
func specGrid() []Experiment {
	var grid []Experiment
	for _, topo := range []string{"mesh", "torus", "cmesh", "fbfly"} {
		for _, dim := range [][2]int{{1, 1}, {2, 3}, {3, 3}, {4, 4}} {
			for _, pattern := range traffic.Names() {
				for _, kind := range alloc.Kinds() {
					for _, vcs := range []int{2, 6, 65} {
						for _, k := range []int{1, 2, vcs} {
							if k == 2 && vcs == 2 {
								continue // the same point as k = vcs
							}
							e := Default()
							e.Topology, e.Width, e.Height = topo, dim[0], dim[1]
							e.Pattern, e.Allocator = pattern, string(kind)
							e.VCs, e.VirtualInputs = vcs, k
							e.InjectionRate = 0.3
							e.Warmup, e.Measure = 0, 100
							grid = append(grid, e)
						}
					}
				}
			}
		}
	}
	return grid
}

// TestValidateAcceptsEverythingBuildAccepts holds Validate to both sides
// of its contract over specGrid: a spec Validate accepts builds into a
// network that runs 100 cycles without an error or a panic, and a spec
// it rejects is one that would not have.
func TestValidateAcceptsEverythingBuildAccepts(t *testing.T) {
	accepted := 0
	for _, e := range specGrid() {
		verr, rerr := e.Validate(), runUnvalidated(e)
		if verr == nil {
			accepted++
		}
		if (verr == nil) != (rerr == nil) {
			t.Errorf("%s %dx%d %s %s vcs=%d k=%d: Validate says %v, running it says %v",
				e.Topology, e.Width, e.Height, e.Pattern, e.Allocator, e.VCs, e.VirtualInputs, verr, rerr)
		}
	}
	if accepted < 1000 {
		t.Errorf("Validate accepted only %d grid points; the contract is vacuous if it rejects everything", accepted)
	}
}

// TestResolvedIsTheOnlyDefaulting: over specGrid and a few odd specs,
// Resolved is idempotent and leaves no structural field zero, and
// resolving a spec first changes neither what Build returns nor what
// Validate says — no default is applied anywhere but Resolved.
func TestResolvedIsTheOnlyDefaulting(t *testing.T) {
	odd := []Experiment{
		{},
		{Topology: "cmesh", Height: 3, InjectionRate: 0.1, Measure: 1}, // Height without Width
		{Conc: 3, InjectionRate: 0.1, Measure: 1},                      // a mesh has one terminal per router
	}
	for _, e := range append(specGrid(), odd...) {
		r := e.Resolved()
		if r.Resolved() != r {
			t.Errorf("%+v: Resolved is not idempotent: %+v then %+v", e, r, r.Resolved())
		}
		for _, f := range []any{r.Topology, r.Width, r.Height, r.Conc, r.VCs, r.BufDepth, r.VirtualInputs,
			r.Allocator, r.Policy, r.Partition, r.Pattern, r.PacketSize, r.HopDelay} {
			if reflect.ValueOf(f).IsZero() {
				t.Errorf("%+v: Resolved left a structural field zero: %+v", e, r)
				break
			}
		}
		want, werr := e.Build()
		got, gerr := r.Build()
		if fmt.Sprint(werr) != fmt.Sprint(gerr) || !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: Build of the resolved spec = %+v, %v; of the spec = %+v, %v", e, got, gerr, want, werr)
		}
	}
}

// TestValidateFieldPaths pins the structured error contract: every bad
// field is reported, under its JSON path, in one pass.
func TestValidateFieldPaths(t *testing.T) {
	e := Default()
	e.Topology = "hypercube"
	e.Allocator = "magic"
	e.Policy = "psychic"
	e.Partition = "diagonal"
	e.Pattern = "stampede"
	e.InjectionRate = 1.5
	e.VCs = -1
	e.Warmup = -10

	err := e.Validate()
	if err == nil {
		t.Fatal("invalid experiment validated")
	}
	var ve ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("error is %T, want ValidationError", err)
	}
	want := []string{"topology", "vcs", "allocator", "policy", "partition", "pattern", "injection_rate", "warmup"}
	if len(ve) != len(want) {
		t.Fatalf("got %d field errors %v, want %d", len(ve), ve, len(want))
	}
	for i, f := range want {
		if ve[i].Field != f {
			t.Errorf("field error %d names %q, want %q (errors: %v)", i, ve[i].Field, f, ve)
		}
		if ve[i].Msg == "" {
			t.Errorf("field error %d (%s) has no message", i, f)
		}
	}
	if !strings.Contains(err.Error(), "injection_rate") {
		t.Errorf("flattened message %q does not name the field", err)
	}

	// A rate outside [0, 1] or not finite is one injection_rate finding.
	// NaN compares false to both bounds, so a check written with < and >
	// lets it through to a network that never injects.
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1} {
		e := Default()
		e.InjectionRate = rate
		if !errors.As(e.Validate(), &ve) || len(ve) != 1 || ve[0].Field != "injection_rate" {
			t.Errorf("injection_rate %v: got %v, want a single injection_rate finding", rate, e.Validate())
		}
	}
}

// TestValidateCrossbarGeometry: virtual inputs cannot exceed VCs, with
// the documented defaults applied before the comparison.
func TestValidateCrossbarGeometry(t *testing.T) {
	e := Default()
	e.VCs = 4
	e.VirtualInputs = 6
	err := e.Validate()
	if err == nil {
		t.Fatal("k > vcs validated")
	}
	var ve ValidationError
	if !errors.As(err, &ve) || len(ve) != 1 || ve[0].Field != "virtual_inputs" {
		t.Fatalf("error = %v, want single virtual_inputs finding", err)
	}
	// k=8 over the default 6 VCs must also be caught (vcs field absent).
	e = Experiment{VirtualInputs: 8, InjectionRate: 0.05, Measure: 1}
	if !errors.As(e.Validate(), &ve) || len(ve) != 1 || ve[0].Field != "virtual_inputs" {
		t.Fatalf("k=8 over defaulted 6 VCs: error = %v, want single virtual_inputs finding", e.Validate())
	}
}

// TestValidateRouterFieldBounds: buffer depth and radix must fit the
// router's int8 slab fields, the diameter the packet record's int16 hop
// counter, the packet size the record's int16 ejected-flit count, the
// hop delay the delay wheels' MaxHopDelay slots, and a wrapping torus
// needs two VCs; Validate agrees with Build and the network's own
// validation on which side of each bound a spec falls. The 5·10⁸-cycle
// hop delay is refused before anything is built: New would make three
// wheels of that many slices, about 36 GB.
func TestValidateRouterFieldBounds(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(e *Experiment)
		field  string // "" when the spec is valid
	}{
		{"buf_depth 127", func(e *Experiment) { e.BufDepth = 127 }, ""},
		{"buf_depth 128", func(e *Experiment) { e.BufDepth = 128 }, "buf_depth"},
		{"cmesh radix 127", func(e *Experiment) { e.Topology, e.Width, e.Height, e.Conc = "cmesh", 2, 1, 123 }, ""},
		{"cmesh radix 128", func(e *Experiment) { e.Topology, e.Width, e.Height, e.Conc = "cmesh", 2, 1, 124 }, "conc"},
		{"fbfly radix 128", func(e *Experiment) { e.Topology, e.Width, e.Height, e.Conc = "fbfly", 126, 2, 2 }, "conc"},
		// Few, shallow buffers keep these under the buffer-slot bound.
		{"mesh diameter 32767", func(e *Experiment) { e.Width, e.Height, e.VCs, e.BufDepth = 32768, 1, 2, 2 }, ""},
		{"mesh diameter 39999", func(e *Experiment) { e.Width, e.Height, e.VCs, e.BufDepth = 40000, 1, 2, 2 }, "width"},
		{"torus 3x3 with 1 VC", func(e *Experiment) { e.Topology, e.Width, e.Height, e.VCs = "torus", 3, 3, 1 }, "vcs"},
		{"unknown policy", func(e *Experiment) { e.Policy = "psychic" }, "policy"},
		{"packet_size at the record's int16 bound", func(e *Experiment) { e.PacketSize = network.MaxPacketSize }, ""},
		{"packet_size past the record's int16 bound", func(e *Experiment) { e.PacketSize = network.MaxPacketSize + 1 }, "packet_size"},
		{"hop_delay at the wheels' bound", func(e *Experiment) { e.HopDelay = network.MaxHopDelay }, ""},
		{"hop_delay past the wheels' bound", func(e *Experiment) { e.HopDelay = network.MaxHopDelay + 1 }, "hop_delay"},
		{"hop_delay 500000000", func(e *Experiment) { e.Width, e.Height, e.HopDelay = 2, 1, 500000000 }, "hop_delay"},
	} {
		e := Default()
		tc.mutate(&e)
		verr := e.Validate()
		var ve ValidationError
		switch {
		case tc.field == "" && verr != nil:
			t.Errorf("%s: rejected: %v", tc.name, verr)
		case tc.field != "" && (!errors.As(verr, &ve) || len(ve) != 1 || ve[0].Field != tc.field):
			t.Errorf("%s: error = %v, want a single %s finding", tc.name, verr, tc.field)
		}
		cfg, err := e.build()
		if err == nil {
			err = cfg.Validate()
		}
		if (verr == nil) != (err == nil) {
			t.Errorf("%s: Validate says %v, the network's own validation says %v", tc.name, verr, err)
		}
	}
}

// TestValidateAllocatesNothing: vixd validates every case it is posted,
// so checking a spec must not build the network it describes.
func TestValidateAllocatesNothing(t *testing.T) {
	e := Default()
	if avg := testing.AllocsPerRun(100, func() { _ = e.Validate() }); avg != 0 {
		t.Errorf("Validate on Default() allocates %v times", avg)
	}
}

// TestLoadValidates: a well-formed JSON file with a semantically invalid
// spec is rejected at load time with the field named.
func TestLoadValidates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exp.json")
	if err := os.WriteFile(path, []byte(`{"allocator": "magic"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	if err == nil {
		t.Fatal("Load accepted an unknown allocator")
	}
	if !strings.Contains(err.Error(), "allocator") {
		t.Fatalf("Load error %q does not name the bad field", err)
	}
}
