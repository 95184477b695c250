package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// vixsim runs the command in-process and fails the test unless it
// exits 0.
func vixsim(t *testing.T, args ...string) string {
	t.Helper()
	var out, errs bytes.Buffer
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("vixsim %s: exit %d; stderr:\n%s", strings.Join(args, " "), code, errs.String())
	}
	return out.String()
}

// TestFlagsOverrideConfig: -config is the base spec, and a flag given
// beside it overrides the file's field. The file's run at -seed 7 and
// short windows prints what the same spec spelled out as flags prints,
// and not what the file's own seed prints.
func TestFlagsOverrideConfig(t *testing.T) {
	file := filepath.Join("..", "..", "configs", "mesh_vix.json") // k 2, balanced, 0.05, seed 1
	windows := []string{"-warmup", "100", "-measure", "300"}
	got := vixsim(t, append([]string{"-config", file, "-seed", "7"}, windows...)...)
	if !strings.Contains(got, "measured            300 cycles after 100 warmup\n") {
		t.Errorf("-warmup/-measure beside -config did not reach the spec:\n%s", got)
	}
	if want := vixsim(t, append([]string{"-k", "2", "-policy", "balanced", "-rate", "0.05", "-seed", "7"}, windows...)...); got != want {
		t.Errorf("-config plus flags differs from the same spec as flags:\n--- got\n%s--- want\n%s", got, want)
	}
	if fileSeed := vixsim(t, append([]string{"-config", file}, windows...)...); fileSeed == got {
		t.Error("-seed 7 beside -config did not reach the spec: the run matches the file's seed 1")
	}
}

// TestUsageErrors: a bad flag, an unreadable -config and a spec Validate
// refuses all exit 2 with nothing on stdout.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-nosuchflag"},
		{"-config", filepath.Join("testdata", "missing.json")},
		{"-measure", "0"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 || out.Len() != 0 {
			t.Errorf("vixsim %s: exit %d with %d stdout bytes, want exit 2 and none", strings.Join(args, " "), code, out.Len())
		}
	}
}
