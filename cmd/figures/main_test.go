package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tiny prefixes args with the windows every golden was recorded at.
func tiny(args ...string) []string {
	return append([]string{"-warmup", "200", "-measure", "600", "-seed", "1"}, args...)
}

func golden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// figures runs the command in-process and fails the test unless it
// exits with want.
func figures(t *testing.T, want int, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errs bytes.Buffer
	if got := run(args, &out, &errs); got != want {
		t.Fatalf("figures %s: exit %d, want %d; stderr:\n%s", strings.Join(args, " "), got, want, errs.String())
	}
	return out.String(), errs.String()
}

// TestFiguresMatchRetiredTools: the stdout of the nine per-figure
// commands this binary replaced is the contract. Each testdata golden
// is what the named retired command printed, built from the last commit
// that had it, at the tiny windows (delaymodel took no windows); figures
// must reproduce it byte for byte whatever the grid worker count.
func TestFiguresMatchRetiredTools(t *testing.T) {
	ablation := []string{"policies", "partition", "pipeline", "speculation", "ksweep", "allocators"}
	cases := []struct {
		golden string // testdata file; the trailing comment is the retired command line that printed it
		args   []string
	}{
		{"delay", []string{"delay"}},                                      // delaymodel
		{"delay_scaling", []string{"-scaling", "delay"}},                  // delaymodel -scaling
		{"fig7", tiny("fig7")},                                            // routerbench
		{"fig8", tiny("fig8")},                                            // loadsweep
		{"fig8_plot", tiny("-plot", "fig8")},                              // loadsweep -plot
		{"fig9", tiny("fig9")},                                            // fairness
		{"fig10", tiny("fig10")},                                          // chaining
		{"fig11", tiny("fig11")},                                          // energymodel
		{"fig11_fbfly", tiny("-topo", "fbfly", "-rate", "0.05", "fig11")}, // energymodel -topo fbfly -rate 0.05
		{"fig12", tiny("fig12")},                                          // virtualinputs
		{"table4", tiny("table4")},                                        // appsim
		{"table4_list", []string{"-list", "table4"}},                      // appsim -list
		{"ablation", tiny(ablation...)},                                   // ablation
		{"ksweep", tiny("ksweep")},                                        // ablation -study ksweep
	}
	for _, c := range cases {
		want := golden(t, c.golden)
		for _, parallel := range []string{"1", "4"} {
			got, _ := figures(t, 0, append([]string{"-parallel", parallel}, c.args...)...)
			if got != string(want) {
				t.Errorf("%s at -parallel %s differs from the retired tool's output:\n--- got\n%s--- want\n%s", c.golden, parallel, got, want)
			}
		}
	}
}

// TestFiguresAllOrder: "all" is the old `make experiments` sequence —
// delaymodel, routerbench, loadsweep, fairness, chaining, energymodel,
// virtualinputs, appsim, then ablation's six studies — every table entry
// is reachable by its name, and no two share one.
func TestFiguresAllOrder(t *testing.T) {
	want := []string{"delay", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "table4",
		"policies", "partition", "pipeline", "speculation", "ksweep", "allocators"}
	all, err := selectArtefacts([]string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(want) {
		t.Fatalf("all selects %d artefacts, want %d", len(all), len(want))
	}
	seen := map[string]bool{}
	for i, a := range all {
		if a.name != want[i] {
			t.Errorf("all[%d] = %s, want %s", i, a.name, want[i])
		}
		if seen[a.name] {
			t.Errorf("artefact name %s is used twice", a.name)
		}
		seen[a.name] = true
		one, err := selectArtefacts([]string{a.name})
		if err != nil || len(one) != 1 || one[0].name != a.name {
			t.Errorf("selectArtefacts(%s) = %v, %v", a.name, one, err)
		}
		if a.run == nil || a.paper == "" {
			t.Errorf("artefact %s has no run function or description", a.name)
		}
	}

	// End to end: `make experiments` at the tiny windows prints the
	// retired tools' outputs back to back.
	var concat strings.Builder
	for _, name := range []string{"delay_scaling", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "table4", "ablation"} {
		concat.Write(golden(t, name))
	}
	got, _ := figures(t, 0, tiny("-scaling", "all")...)
	if got != concat.String() {
		t.Errorf("figures -scaling all differs from the retired tools' outputs concatenated:\n%s", got)
	}
}

// TestFiguresUsageErrors: a command line that cannot produce the
// artefact it names exits 2 having printed nothing on stdout — never a
// table of zeros with exit 0.
func TestFiguresUsageErrors(t *testing.T) {
	cases := []struct {
		args   []string
		stderr string // must appear on stderr
	}{
		{[]string{"-measure", "0", "fig10"}, "invalid -measure value"},
		{[]string{"-measure", "-5", "fig9"}, "invalid -measure value"},
		{[]string{"-warmup", "-1", "fig9"}, "invalid -warmup value"},
		{[]string{"fig13"}, `unknown artefact "fig13"; want all or any of delay, fig7,`},
		{nil, "no artefact named; want all or any of delay, fig7,"},
		{[]string{"-plot", "fig9"}, "-plot is given but no selected artefact reads it"},
		{[]string{"-scaling", "fig7", "fig8"}, "-scaling is given but"},
		{[]string{"-list", "fig11"}, "-list is given but"},
		{[]string{"-topo", "fbfly", "-rate", "0.05", "table4"}, "-rate is given but"},
		{[]string{"-topo", "ring", "fig11"}, "invalid -topo value"},
		{[]string{"-rate", "1.5", "fig11"}, "invalid -rate value"},
	}
	for _, c := range cases {
		stdout, stderr := figures(t, 2, c.args...)
		if stdout != "" {
			t.Errorf("figures %v printed to stdout before exiting 2:\n%s", c.args, stdout)
		}
		if !strings.Contains(stderr, c.stderr) {
			t.Errorf("figures %v: stderr %q does not contain %q", c.args, stderr, c.stderr)
		}
	}
}
