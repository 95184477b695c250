package config

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vix/internal/network"
)

func TestDefaultBuilds(t *testing.T) {
	cfg, err := Default().Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := network.New(cfg); err != nil {
		t.Fatalf("default experiment does not build a network: %v", err)
	}
	if cfg.Topology.Radix != 5 || cfg.Topology.NumNodes != 64 {
		t.Fatalf("default topology wrong: %+v", cfg.Topology.Name)
	}
}

// TestLoadNonDefaultSpec: a hand-written file setting non-default fields
// loads to exactly those fields over Default, and builds.
func TestLoadNonDefaultSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exp.json")
	body := `{"topology": "fbfly", "virtual_inputs": 2, "allocator": "wavefront",
		"partition": "interleaved", "pattern": "transpose", "max_injection": true, "seed": 99}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	want := Default()
	want.Topology = "fbfly"
	want.VirtualInputs = 2
	want.Allocator = "wavefront"
	want.Partition = "interleaved"
	want.Pattern = "transpose"
	want.MaxInjection = true
	want.Seed = 99

	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("loaded spec mismatch:\n got %+v\nwant %+v", got, want)
	}
	cfg, err := got.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology.Radix != 10 {
		t.Fatalf("fbfly radix = %d", cfg.Topology.Radix)
	}
	if _, err := network.New(cfg); err != nil {
		t.Fatalf("loaded experiment does not build: %v", err)
	}
}

func TestLoadAppliesDefaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "partial.json")
	if err := os.WriteFile(path, []byte(`{"virtual_inputs": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if e.VCs != 6 || e.BufDepth != 5 || e.VirtualInputs != 2 {
		t.Fatalf("defaults not applied: %+v", e)
	}
	cfg, err := e.Build()
	if err != nil {
		t.Fatal(err)
	}
	// k > 1 without explicit policy selects the balanced policy.
	if cfg.Router.Policy != "balanced" {
		t.Fatalf("implied policy = %q, want balanced", cfg.Router.Policy)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "typo.json")
	if err := os.WriteFile(path, []byte(`{"virtual_inpts": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("typo field accepted")
	}
}

// TestDecodeRejectsTrailingData: a spec is exactly one JSON object; a
// second object or garbage after it is an error, not silently dropped.
func TestDecodeRejectsTrailingData(t *testing.T) {
	for body, wantErr := range map[string]bool{
		`{"vcs":4,"injection_rate":0.1}` + " \n\t": false,
		`{"vcs":4,"injection_rate":0.1} {"vcs":8}`: true,
		`{"vcs":4,"injection_rate":0.1} garbage`:   true,
		`{"vcs":4,"injection_rate":0.1}]`:          true,
	} {
		e, err := Decode(strings.NewReader(body))
		if (err != nil) != wantErr {
			t.Errorf("Decode(%q) = %+v, %v; want error %v", body, e, err, wantErr)
		}
	}
}

// TestDecodeRejectsNonObjects: a spec is a JSON object. A null is not
// Default(): vixd would run {"spec": null} as the 8x8 mesh.
func TestDecodeRejectsNonObjects(t *testing.T) {
	for _, body := range []string{`null`, ` null `, `5`, `"mesh"`, `[]`, `true`} {
		if e, err := Decode(strings.NewReader(body)); err == nil {
			t.Errorf("Decode(%q) = %+v, want an error", body, e)
		}
	}
}

// TestDecodeRejectsOversizedNetworks: a network whose input buffers hold
// more than maxBufferSlots flit slots is a width finding, refused before
// anything is built — the 30000x30000 torus would exhaust memory.
func TestDecodeRejectsOversizedNetworks(t *testing.T) {
	for body, ok := range map[string]bool{
		`{"width": 16000}`: false,
		`{"topology": "torus", "width": 30000, "height": 30000}`: false,
		// 128 x 64 routers x radix 8 x 8 VCs x 8 flits is the bound itself.
		`{"topology": "cmesh", "width": 128, "height": 64, "vcs": 8, "buf_depth": 8}`: true,
		`{"topology": "cmesh", "width": 129, "height": 64, "vcs": 8, "buf_depth": 8}`: false,
		`{"width": 32}`: true,
	} {
		_, err := Decode(strings.NewReader(body))
		var ve ValidationError
		switch {
		case ok && err != nil:
			t.Errorf("Decode(%s): %v", body, err)
		case !ok && (!errors.As(err, &ve) || len(ve) != 1 || ve[0].Field != "width"):
			t.Errorf("Decode(%s) = %v, want a single width finding", body, err)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/exp.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []func(*Experiment){
		func(e *Experiment) { e.Topology = "ring" },
		func(e *Experiment) { e.Partition = "diagonal" },
		func(e *Experiment) { e.Pattern = "chaos" },
	}
	for i, mutate := range cases {
		e := Default()
		mutate(&e)
		if _, err := e.Build(); err == nil {
			t.Errorf("case %d: invalid experiment built", i)
		}
	}
}

func TestCustomDimensions(t *testing.T) {
	e := Default()
	e.Topology = "mesh"
	e.Width, e.Height = 4, 4
	cfg, err := e.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology.NumNodes != 16 {
		t.Fatalf("4x4 mesh nodes = %d", cfg.Topology.NumNodes)
	}
	// Square default for height.
	e = Default()
	e.Width = 6
	cfg, err = e.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology.NumNodes != 36 {
		t.Fatalf("6-wide mesh nodes = %d, want 36", cfg.Topology.NumNodes)
	}
}

func TestNodeGrid(t *testing.T) {
	cases := [][3]int{{64, 8, 8}, {16, 4, 4}, {36, 6, 6}, {12, 4, 3}, {7, 7, 1}}
	for _, c := range cases {
		w, h := nodeGrid(c[0])
		if w != c[1] || h != c[2] {
			t.Errorf("nodeGrid(%d) = (%d,%d), want (%d,%d)", c[0], w, h, c[1], c[2])
		}
	}
}

func TestCMeshAndFBflyDefaults(t *testing.T) {
	for _, name := range []string{"cmesh", "fbfly"} {
		e := Default()
		e.Topology = name
		cfg, err := e.Build()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Topology.NumNodes != 64 {
			t.Fatalf("%s default nodes = %d", name, cfg.Topology.NumNodes)
		}
		// Square default when only width given.
		e.Width = 2
		e.Conc = 2
		cfg, err = e.Build()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Topology.NumNodes != 2*2*2 {
			t.Fatalf("%s 2x2c2 nodes = %d", name, cfg.Topology.NumNodes)
		}
	}
}

func TestNonSpeculativeAndPartitionPlumbing(t *testing.T) {
	e := Default()
	e.NonSpeculative = true
	e.Partition = "interleaved"
	cfg, err := e.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Router.NonSpeculative {
		t.Error("NonSpeculative not plumbed")
	}
	if cfg.Router.Partition != 1 {
		t.Error("Partition not plumbed")
	}
	if e.Resolved().Partition != "interleaved" {
		t.Error("resolved partition wrong")
	}
	if (Experiment{}).Resolved().Partition != "contiguous" {
		t.Error("default resolved partition wrong")
	}
}

// Every shipped configs/*.json file must load and build, so the example
// configurations cannot rot.
func TestShippedConfigsBuild(t *testing.T) {
	matches, err := filepath.Glob("../../configs/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) < 5 {
		t.Fatalf("expected shipped config files, found %d", len(matches))
	}
	for _, path := range matches {
		e, err := Load(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		cfg, err := e.Build()
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if _, err := network.New(cfg); err != nil {
			t.Errorf("%s: network rejects config: %v", path, err)
		}
	}
}
