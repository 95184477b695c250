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
// must reproduce it byte for byte whatever the grid worker count — which
// fig8 to fig12 and the six studies fan their points out across.
func TestFiguresMatchRetiredTools(t *testing.T) {
	ablation := []string{"policies", "partition", "pipeline", "speculation", "ksweep", "allocators"}
	cases := []struct {
		golden string // testdata file; the trailing comment is the retired command line that printed it
		grid   bool   // a harness grid: run at -parallel 1 and 4
		args   []string
	}{
		{"delay", false, []string{"delay"}},                                     // delaymodel
		{"delay_scaling", false, []string{"-scaling", "delay"}},                 // delaymodel -scaling
		{"fig7", false, tiny("fig7")},                                           // routerbench
		{"fig8", true, tiny("fig8")},                                            // loadsweep
		{"fig8_plot", true, tiny("-plot", "fig8")},                              // loadsweep -plot
		{"fig9", true, tiny("fig9")},                                            // fairness
		{"fig10", true, tiny("fig10")},                                          // chaining
		{"fig11", true, tiny("fig11")},                                          // energymodel
		{"fig11_fbfly", true, tiny("-topo", "fbfly", "-rate", "0.05", "fig11")}, // energymodel -topo fbfly -rate 0.05
		{"fig12", true, tiny("fig12")},                                          // virtualinputs
		{"table4", false, tiny("table4")},                                       // appsim
		{"table4_list", false, []string{"-list", "table4"}},                     // appsim -list
		{"ablation", true, tiny(ablation...)},                                   // ablation
		{"ksweep", true, tiny("ksweep")},                                        // ablation -study ksweep
	}
	for _, c := range cases {
		want := golden(t, c.golden)
		runs := [][]string{c.args}
		if c.grid {
			runs = [][]string{append([]string{"-parallel", "1"}, c.args...), append([]string{"-parallel", "4"}, c.args...)}
		}
		for _, args := range runs {
			if got, _ := figures(t, 0, args...); got != string(want) {
				t.Errorf("figures %s differs from the retired tool's output:\n--- got\n%s--- want\n%s", strings.Join(args, " "), got, want)
			}
		}
	}
}

// TestFiguresResume: fig9 to fig12 are harness grids like fig8 and the
// studies, so a rerun against the manifest a complete run left behind
// prints the same tables having simulated nothing.
func TestFiguresResume(t *testing.T) {
	var want strings.Builder
	for _, name := range []string{"fig9", "fig10", "fig11", "fig12"} {
		want.Write(golden(t, name))
	}
	args := tiny("-parallel", "4", "-resume", filepath.Join(t.TempDir(), "fig.jsonl"), "-v", "fig9", "fig10", "fig11", "fig12")
	for _, pass := range []string{"cold", "resumed"} {
		stdout, stderr := figures(t, 0, args...)
		if stdout != want.String() {
			t.Errorf("%s run differs from the goldens:\n%s", pass, stdout)
		}
		// One -v line per point: 4 + 5 + 2 + 18.
		lines := strings.Split(strings.TrimSpace(stderr), "\n")
		if len(lines) != 29 {
			t.Errorf("%s run logged %d points, want 29:\n%s", pass, len(lines), stderr)
		}
		for _, ln := range lines {
			if cached := strings.HasSuffix(ln, "cached (manifest)"); cached != (pass == "resumed") {
				t.Errorf("%s run: %s", pass, ln)
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
		{[]string{"-parallel", "4", "delay"}, "-parallel is given but"},
		{[]string{"-resume", "fig.jsonl", "fig7", "table4"}, "-resume is given but"},
		{[]string{"-v", "table4"}, "-v is given but"},
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
