package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vix/internal/config"
	"vix/internal/harness"
)

// testBase shrinks the simulation windows so the real-simulation
// determinism checks stay fast.
func testBase() config.Experiment {
	e := config.Default()
	e.Warmup = 150
	e.Measure = 400
	return e
}

// sweepGrid builds the grid over testBase and runs it, as run does
// between flag parsing and the output file.
func sweepGrid(schemes []scheme, rates []float64, saturate bool, opt harness.Options, w io.Writer) error {
	jobs, err := buildJobs(testBase(), schemes, rates, saturate)
	if err != nil {
		return err
	}
	return sweep(context.Background(), jobs, opt, w)
}

// TestSweepCSVByteIdenticalAcrossWorkers is the acceptance criterion:
// the harness-backed sweep produces byte-identical CSV for -parallel=1
// and -parallel=8 on the same grid.
func TestSweepCSVByteIdenticalAcrossWorkers(t *testing.T) {
	schemes := []scheme{{alloc: "if", k: 1}, {alloc: "if", k: 2}}
	rates := []float64{0.02, 0.05}
	var serial, parallel bytes.Buffer
	if err := sweepGrid(schemes, rates, true, harness.Options{Parallel: 1}, &serial); err != nil {
		t.Fatal(err)
	}
	if err := sweepGrid(schemes, rates, true, harness.Options{Parallel: 8}, &parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatalf("CSV differs between worker counts:\n-parallel=1:\n%s\n-parallel=8:\n%s", serial.String(), parallel.String())
	}
	lines := strings.Split(strings.TrimSpace(serial.String()), "\n")
	wantRows := 1 + len(schemes)*(len(rates)+1) // header + points + saturation per scheme
	if len(lines) != wantRows {
		t.Fatalf("CSV has %d lines, want %d:\n%s", len(lines), wantRows, serial.String())
	}
	if lines[0] != strings.Join(sweepHeader, ",") {
		t.Fatalf("header = %q", lines[0])
	}
}

// TestSweepResumeSplicesManifest: a manifest populated by a partial grid
// is spliced into a later, larger run, and the artifact still equals a
// from-scratch run's byte for byte.
func TestSweepResumeSplicesManifest(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "sweep.jsonl")
	rates := []float64{0.02, 0.05}
	partial := []scheme{{alloc: "if", k: 1}}
	full := []scheme{{alloc: "if", k: 1}, {alloc: "if", k: 2}}

	// First run covers only the first scheme, checkpointing it.
	var firstOut bytes.Buffer
	if err := sweepGrid(partial, rates, false, harness.Options{Parallel: 2, Manifest: manifest}, &firstOut); err != nil {
		t.Fatal(err)
	}

	// The full grid resumes: scheme 1's points must come from the
	// manifest, scheme 2's from fresh simulation.
	cached := 0
	var resumedOut bytes.Buffer
	opt := harness.Options{Parallel: 2, Manifest: manifest, OnDone: func(r harness.Result) {
		if r.Cached {
			cached++
		}
	}}
	if err := sweepGrid(full, rates, false, opt, &resumedOut); err != nil {
		t.Fatal(err)
	}
	if cached != len(rates) {
		t.Errorf("resume replayed %d cached points, want %d", cached, len(rates))
	}

	var freshOut bytes.Buffer
	if err := sweepGrid(full, rates, false, harness.Options{Parallel: 1}, &freshOut); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumedOut.Bytes(), freshOut.Bytes()) {
		t.Fatalf("resumed artifact differs from from-scratch run:\nresumed:\n%s\nfresh:\n%s", resumedOut.String(), freshOut.String())
	}
}

// TestSweepPointSeedsDiffer guards the sub-seed satellite: distinct grid
// points must not share an RNG stream, and the same point must keep its
// seed when the grid around it changes.
func TestSweepPointSeedsDiffer(t *testing.T) {
	jobs, err := buildJobs(testBase(), []scheme{{alloc: "if", k: 1}, {alloc: "if", k: 2}}, []float64{0.02, 0.05}, true)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make(map[uint64]string)
	for _, j := range jobs {
		e := j.Spec.(config.Experiment)
		if e.Seed == testBase().Seed {
			t.Errorf("job %s runs on the root seed; derivation missing", j.Name)
		}
		if prev, dup := seeds[e.Seed]; dup {
			t.Errorf("jobs %s and %s share seed %d", prev, j.Name, e.Seed)
		}
		seeds[e.Seed] = j.Name
	}
	// Same point, different grid shape: seed is position-independent.
	solo, err := buildJobs(testBase(), []scheme{{alloc: "if", k: 2}}, []float64{0.05}, false)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := solo[0].Spec.(config.Experiment).Seed, findJob(t, jobs, solo[0].Name).Spec.(config.Experiment).Seed; a != b {
		t.Errorf("point %s changed seed with grid shape: %d vs %d", solo[0].Name, a, b)
	}

	// A point's manifest key is its name and config.Experiment,
	// content-hashed; -resume manifests on disk are keyed by it, so it
	// must not move. The default grid's if:1 @ 0.02 point has had this ID
	// since before config.Experiment.Run became the runner.
	pinned, err := buildJobs(config.Default(), []scheme{{alloc: "if", k: 1}}, []float64{0.02}, false)
	if err != nil {
		t.Fatal(err)
	}
	if id, err := harness.JobID(pinned[0]); err != nil || id != "b0edac05e3540ab791c70815" {
		t.Errorf("%s has job ID %s (%v), want b0edac05e3540ab791c70815: existing manifests would stop resuming", pinned[0].Name, id, err)
	}
}

func findJob(t *testing.T, jobs []harness.Job, name string) harness.Job {
	t.Helper()
	for _, j := range jobs {
		if j.Name == name {
			return j
		}
	}
	t.Fatalf("job %s not found", name)
	return harness.Job{}
}

// TestParseErrors: flag parsing propagates errors instead of calling
// log.Fatal mid-loop.
func TestParseErrors(t *testing.T) {
	if _, err := parseSchemes("if"); err == nil {
		t.Error("bare scheme accepted")
	}
	if _, err := parseSchemes("if:x"); err == nil {
		t.Error("non-numeric k accepted")
	}
	if _, err := parseRates("0.01,zap"); err == nil {
		t.Error("bad rate accepted")
	}
}

// TestSweepInvalidPointRunsNothing: a scheme that parses but that the
// simulator would refuse (if:7 on 6 VCs; ideal and sparoflo at k=2), or a
// rate at which nothing would ever inject, fails the whole grid up front
// with an error naming the scheme and the field — no point before it
// simulates and a previous run's output file survives.
func TestSweepInvalidPointRunsNothing(t *testing.T) {
	for _, bad := range []string{"if:7", "ideal:2", "sparoflo:2"} {
		schemes, err := parseSchemes("if:1," + bad)
		if err != nil {
			t.Fatalf("%s: parseSchemes: %v", bad, err)
		}
		jobs, err := buildJobs(testBase(), schemes, []float64{0.02}, true)
		if err == nil || !strings.Contains(err.Error(), "scheme "+bad) {
			t.Errorf("%s: buildJobs error = %v, want one naming the scheme", bad, err)
		}
		if len(jobs) != 0 {
			t.Errorf("%s: buildJobs returned %d jobs alongside the error", bad, len(jobs))
		}
	}

	dir := t.TempDir()
	out, manifest := filepath.Join(dir, "out.csv"), filepath.Join(dir, "sweep.jsonl")
	const previous = "allocator,k\nprevious,run\n"
	if err := os.WriteFile(out, []byte(previous), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ schemes, rates, scheme, field string }{
		{"if:1,if:7", "0.02", "scheme if:7", "virtual_inputs"},
		{"if:1", "0.02,0", "scheme if:1", "injection_rate"},
	} {
		var errs bytes.Buffer
		code := run([]string{"-schemes", c.schemes, "-rates", c.rates, "-o", out, "-resume", manifest}, io.Discard, &errs)
		if code != 2 || !strings.Contains(errs.String(), c.scheme) || !strings.Contains(errs.String(), c.field) {
			t.Fatalf("run exit %d, stderr %q, want 2 and the %s finding naming %s", code, errs.String(), c.field, c.scheme)
		}
		if got, err := os.ReadFile(out); err != nil || string(got) != previous {
			t.Errorf("pre-existing -o file was touched: %q, %v", got, err)
		}
		if _, err := os.Stat(manifest); !os.IsNotExist(err) {
			t.Errorf("a manifest exists (%v): some point simulated before the grid was refused", err)
		}
	}
}

// TestUsageErrors: like vixsim and figures, sweep exits 2 on a usage
// error with nothing on stdout, 1 when the run itself fails, and 0 with
// the CSV on stdout on success.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	small := filepath.Join(dir, "small.json")
	if err := os.WriteFile(small, []byte(`{"warmup":150,"measure":400}`), 0o644); err != nil {
		t.Fatal(err)
	}
	grid := []string{"-config", small, "-schemes", "if:1", "-rates", "0.02", "-sat=false"}
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-nosuchflag"}, 2},
		{[]string{"-schemes", "if"}, 2},
		{[]string{"-schemes", "nosuch:1"}, 2},
		{[]string{"-rates", "2"}, 2},
		{[]string{"-rates", "0.02,zap"}, 2},
		{[]string{"-schemes", "if:7"}, 2},
		{[]string{"-config", filepath.Join(dir, "missing.json")}, 2},
		{append(grid, "-o", filepath.Join(dir, "no", "such", "dir.csv")), 1},
	} {
		var out, errs bytes.Buffer
		if code := run(c.args, &out, &errs); code != c.code || out.Len() != 0 || errs.Len() == 0 {
			t.Errorf("sweep %s: exit %d, %d stdout bytes, stderr %q; want exit %d, no stdout, a message",
				strings.Join(c.args, " "), code, out.Len(), errs.String(), c.code)
		}
	}
	var out, errs bytes.Buffer
	if code := run(grid, &out, &errs); code != 0 || !strings.HasPrefix(out.String(), strings.Join(sweepHeader, ",")+"\n") {
		t.Errorf("sweep %s: exit %d, stdout %q, stderr %q; want exit 0 and the CSV", strings.Join(grid, " "), code, out.String(), errs.String())
	}
}
