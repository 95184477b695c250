package vix_test

import (
	"testing"

	"vix"
)

// Registration refuses a nil factory and a built-in kind;
// ExampleRegisterAllocator registers a custom kind and runs it by name.
func TestPublicCustomAllocator(t *testing.T) {
	if err := vix.RegisterAllocator("test-nil", nil); err == nil {
		t.Error("nil factory accepted")
	}
	if err := vix.RegisterAllocator("if", newOutputFirst); err == nil {
		t.Error("built-in override accepted")
	}
}

func TestPublicExperimentConfig(t *testing.T) {
	if _, err := vix.LoadExperiment("/does/not/exist.json"); err == nil {
		t.Fatal("missing experiment file accepted")
	}
}
