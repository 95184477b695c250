package cli

import (
	"bytes"
	"log"
	"os"
	"path/filepath"
	"testing"

	"vix/internal/harness"
	"vix/internal/store"
)

func TestProgressLines(t *testing.T) {
	var buf bytes.Buffer
	done := Progress(log.New(&buf, "tool: ", 0))
	done(harness.Result{Name: "fig8/IF/0.05", Telemetry: store.Telemetry{WallNanos: 1_500_000_000, Cycles: 3000, CyclesPerSec: 2000}})
	done(harness.Result{Name: "fig8/IF/0.06", Cached: true})
	want := "tool: fig8/IF/0.05: 1.5s (2000 cycles/sec)\ntool: fig8/IF/0.06: cached (manifest)\n"
	if buf.String() != want {
		t.Errorf("progress log:\n%q\nwant:\n%q", buf.String(), want)
	}
}

// TestProfileWritesBothFiles: stop closes the CPU profile and writes the
// heap profile; with no paths it does nothing; a bad path is an error
// before any work starts.
func TestProfileWritesBothFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Profile(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: not written (%v)", path, err)
		}
	}

	stop, err = Profile("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Errorf("stop with no profiles requested: %v", err)
	}
	if _, err := Profile(filepath.Join(dir, "missing", "cpu.pprof"), ""); err == nil {
		t.Error("unwritable -cpuprofile path accepted")
	}
}
