package service

import (
	"testing"

	"vix/internal/alloc"
	"vix/internal/config"
	"vix/internal/traffic"
)

// TestSpecLabelReadsTheResolvedSpec: a case's label is the same for a
// spec and for its Resolved form, over config's validation grid of
// geometries, patterns, allocators and crossbar shapes — specLabel
// applies no default of its own.
func TestSpecLabelReadsTheResolvedSpec(t *testing.T) {
	for _, topo := range []string{"mesh", "torus", "cmesh", "fbfly"} {
		for _, dim := range [][2]int{{1, 1}, {2, 3}, {3, 3}, {4, 4}} {
			for _, pattern := range traffic.Names() {
				for _, kind := range alloc.Kinds() {
					for _, vcs := range []int{2, 6, 65} {
						for _, k := range []int{0, 1, 2, vcs} {
							e := config.Experiment{Topology: topo, Width: dim[0], Height: dim[1], Pattern: pattern,
								Allocator: string(kind), VCs: vcs, VirtualInputs: k, InjectionRate: 0.3, Measure: 100}
							if got, want := specLabel(e), specLabel(e.Resolved()); got != want {
								t.Errorf("%+v: specLabel = %q, of the resolved spec %q", e, got, want)
							}
						}
					}
				}
			}
		}
	}
	if got := specLabel(config.Experiment{InjectionRate: 0.02}); got != "vixd/if:1/0.02" {
		t.Errorf("specLabel of a spec of defaults = %q, want vixd/if:1/0.02", got)
	}
}
