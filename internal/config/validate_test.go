package config

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestValidateAcceptsDefaults: the documented default experiment and the
// zero value (all defaults) must both validate.
func TestValidateAcceptsDefaults(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
	if err := (Experiment{}).Validate(); err != nil {
		t.Fatalf("zero experiment invalid: %v", err)
	}
}

// TestValidateAcceptsEverythingBuildAccepts sweeps the enum fields
// through their legal values: Validate must never reject a spec Build
// can resolve.
func TestValidateAcceptsEverythingBuildAccepts(t *testing.T) {
	for _, topo := range []string{"", "mesh", "cmesh", "fbfly"} {
		for _, allocName := range []string{"", "if", "wavefront", "ap", "pc", "ideal", "islip", "sparoflo", "if-age"} {
			e := Default()
			e.Topology = topo
			e.Allocator = allocName
			if err := e.Validate(); err != nil {
				t.Errorf("topology=%q allocator=%q rejected: %v", topo, allocName, err)
				continue
			}
			if _, err := e.Build(); err != nil {
				t.Errorf("topology=%q allocator=%q validated but Build failed: %v", topo, allocName, err)
			}
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
	e = Experiment{VirtualInputs: 8}
	if e.Validate() == nil {
		t.Fatal("k=8 over defaulted 6 VCs validated")
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
