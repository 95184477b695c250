package vix_test

import (
	"testing"

	"vix"
)

// A custom allocator registered through the facade is usable by name in a
// spec, and registration refuses a nil factory and a built-in kind.
func TestPublicCustomAllocator(t *testing.T) {
	kind := vix.AllocatorKind("test-greedy")
	err := vix.RegisterAllocator(kind, func(cfg vix.AllocatorConfig) (vix.Allocator, error) {
		return &greedy{cfg: cfg}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := vix.RegisterAllocator(kind, nil); err == nil {
		t.Error("nil factory accepted")
	}
	if err := vix.RegisterAllocator("if", func(cfg vix.AllocatorConfig) (vix.Allocator, error) { return nil, nil }); err == nil {
		t.Error("built-in override accepted")
	}

	e := vix.DefaultExperiment()
	e.Width, e.Height = 4, 4
	e.VCs, e.Allocator, e.Policy = 4, string(kind), "maxfree"
	e.InjectionRate, e.PacketSize, e.Seed = 0.03, 2, 3
	e.Warmup, e.Measure = 400, 1200
	s, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s.FlitsEjected == 0 {
		t.Fatal("custom allocator moved no traffic")
	}
}

// greedy is a deliberately simple first-come allocator used to exercise
// the registration path.
type greedy struct{ cfg vix.AllocatorConfig }

func (g *greedy) Name() string { return "test-greedy" }
func (g *greedy) Reset()       {}
func (g *greedy) Allocate(rs *vix.RequestSet) []vix.SwitchGrant {
	rowUsed := map[int]bool{}
	outUsed := map[int]bool{}
	var grants []vix.SwitchGrant
	for i, r := range rs.Requests {
		row := g.cfg.Row(r.Port, r.VC)
		if rowUsed[row] || outUsed[r.OutPort] {
			continue
		}
		rowUsed[row] = true
		outUsed[r.OutPort] = true
		grants = append(grants, vix.SwitchGrant{Req: i, OutPort: r.OutPort, Row: row})
	}
	return grants
}

func TestPublicExperimentConfig(t *testing.T) {
	if _, err := vix.LoadExperiment("/does/not/exist.json"); err == nil {
		t.Fatal("missing experiment file accepted")
	}
}
