package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vix/internal/lint"
)

// checkModule writes a synthetic module into a temp dir and lints it.
// Keys of files are slash-separated paths relative to the module root.
func checkModule(t *testing.T, files map[string]string) []lint.Finding {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module example.com/m\n\ngo 1.22\n"
	for path, src := range files {
		abs := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(abs), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(abs, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	findings, err := lint.Check(root)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return findings
}

// want asserts that exactly one finding matches rule at the given
// file:line, returning it.
func want(t *testing.T, findings []lint.Finding, rule, file string, line int) {
	t.Helper()
	n := 0
	for _, f := range findings {
		if f.Rule == rule && strings.HasSuffix(f.Pos.Filename, file) && f.Pos.Line == line {
			n++
		}
	}
	if n != 1 {
		t.Errorf("want exactly one %s at %s:%d, got %d\nall findings:\n%s",
			rule, file, line, n, render(findings))
	}
}

// wantNone asserts no finding of the given rule exists.
func wantNone(t *testing.T, findings []lint.Finding, rule string) {
	t.Helper()
	for _, f := range findings {
		if f.Rule == rule {
			t.Errorf("unexpected %s finding: %s", rule, f)
		}
	}
}

func render(findings []lint.Finding) string {
	var b strings.Builder
	for _, f := range findings {
		b.WriteString("  " + f.String() + "\n")
	}
	if b.Len() == 0 {
		return "  (none)\n"
	}
	return b.String()
}

func count(findings []lint.Finding, rule string) int {
	n := 0
	for _, f := range findings {
		if f.Rule == rule {
			n++
		}
	}
	return n
}

func TestDeterminismFamily(t *testing.T) {
	findings := checkModule(t, map[string]string{
		"internal/clocky/clocky.go": `package clocky

import (
	"math/rand"
	"time"
)

var total int

func Stamp() int64 {
	return time.Now().UnixNano()
}

func Elapsed(t0 time.Time) time.Duration {
	return time.Since(t0)
}

func Draw() int {
	return rand.Int()
}

func Spawn() {
	go Draw()
}

func SumCounts(m map[string]int) {
	for _, v := range m {
		total += v
	}
}

func ReadOnly(m map[string]int) int {
	best := 0
	for _, v := range m {
		local := v * v
		_ = local
	}
	return best
}
`,
	})
	const f = "clocky.go"
	want(t, findings, "determinism/rand", f, 4)
	want(t, findings, "determinism/time", f, 11)
	want(t, findings, "determinism/time", f, 15)
	want(t, findings, "determinism/goroutine", f, 23)
	want(t, findings, "determinism/maprange", f, 27)
	if got := count(findings, "determinism/maprange"); got != 1 {
		t.Errorf("maprange findings = %d, want 1 (ReadOnly's loop only writes locals)\n%s", got, render(findings))
	}
}

func TestDeterminismWaivers(t *testing.T) {
	findings := checkModule(t, map[string]string{
		"internal/waved/waved.go": `package waved

var sum int

func Justified(m map[string]int) {
	for _, v := range m { //vixlint:ordered addition over ints is order-independent
		sum += v
	}
}

func Unjustified(m map[string]int) {
	//vixlint:ordered
	for _, v := range m {
		sum += v
	}
}

func NotWaived(m map[string]int) {
	for _, v := range m {
		sum += v
	}
}
`,
		// A waiver is consulted once per site, at the line the rule
		// reports: for determinism/rand that is the import, so waiving it
		// there covers every use — through any chain of callers — and the
		// waiver counts as used.
		"internal/waved/shuffle.go": `package waved

import "math/rand" //vixlint:ordered test-only shuffle, never reaches a result

func draw() int { return rand.Int() }

func Draw() int { return draw() }
`,
	})
	const f = "waved.go"
	// The justified waiver suppresses its loop; the bare one suppresses
	// too but is itself flagged for the missing justification.
	want(t, findings, "determinism/waiver", f, 12)
	want(t, findings, "determinism/maprange", f, 19)
	if len(findings) != 2 {
		t.Errorf("want only Unjustified's and NotWaived's findings (shuffle.go's import is waived)\n%s", render(findings))
	}
}

// TestRetiredDirectivesAreUnknown pins that the markers of the deleted
// escape and state gates and the waivers of the deleted contracts/scratch
// rule and shard-ownership pass no longer parse: a straggler reports
// directive/unknown like any typo instead of rotting silently — and
// nothing else, so the alloc and shared markers are neither waivers (no
// waiver/stale, no finding for the missing justification) nor attached
// to any rule.
func TestRetiredDirectivesAreUnknown(t *testing.T) {
	findings := checkModule(t, map[string]string{
		"internal/old/old.go": `package old

//vixlint:hot
func Tick() {}

type T struct {
	//vixlint:state buf carries only capacity across cycles
	buf []int
}

//vixlint:sate typo
var _ = T{}

//vixlint:alloc
func Noop() {}

//vixlint:shared
func Job(i int) {}
`,
	})
	const f = "old.go"
	want(t, findings, "directive/unknown", f, 3)
	want(t, findings, "directive/unknown", f, 7)
	want(t, findings, "directive/unknown", f, 11)
	want(t, findings, "directive/unknown", f, 14)
	want(t, findings, "directive/unknown", f, 17)
	if len(findings) != 5 {
		t.Errorf("want only the five directive findings\n%s", render(findings))
	}
}

// TestConcurrencyAllowlist covers both sides of the goroutine rule: go
// statements are legal in the allowlisted packages (internal/sim among
// them) and nowhere else — not in simulation packages like
// internal/alloc, and not in a package merely named sim at another path.
// Every other determinism rule still binds inside the allowlisted
// packages.
func TestConcurrencyAllowlist(t *testing.T) {
	findings := checkModule(t, map[string]string{
		"internal/sim/pool.go": `package sim

import "time"

func FanOut(fns []func()) {
	done := make(chan struct{})
	for _, fn := range fns {
		fn := fn
		go func() {
			fn()
			done <- struct{}{}
		}()
	}
	for range fns {
		<-done
	}
}

func Stamp() int64 {
	return time.Now().UnixNano()
}
`,
		"internal/alloc/pool.go": `package alloc

func Sneaky(fn func()) {
	go fn()
}
`,
		"internal/nested/sim/pool.go": `package sim

func AlsoSneaky(fn func()) {
	go fn()
}
`,
	})
	wantNone(t, findings, "determinism/rand")
	if got := count(findings, "determinism/goroutine"); got != 2 {
		t.Errorf("goroutine findings = %d, want 2 (alloc and nested/sim only)\n%s", got, render(findings))
	}
	want(t, findings, "determinism/goroutine", "alloc/pool.go", 4)
	want(t, findings, "determinism/goroutine", "nested/sim/pool.go", 4)
	// The allowlist covers goroutines only: wall-clock reads in sim
	// still need an explicit, justified waiver.
	want(t, findings, "determinism/time", "internal/sim/pool.go", 20)
}

func TestDeterminismSkipsCmdAndRoot(t *testing.T) {
	src := `package main

import "time"

func main() {
	_ = time.Now()
}
`
	findings := checkModule(t, map[string]string{
		"cmd/tool/main.go": src,
	})
	wantNone(t, findings, "determinism/time")
}

func TestHygieneFamily(t *testing.T) {
	findings := checkModule(t, map[string]string{
		"internal/noisy/noisy.go": `package noisy

import (
	"errors"
	"fmt"
	"os"
)

func Talk() {
	fmt.Println("hello")
	fmt.Fprintf(os.Stdout, "hi\n")
	println("debug")
}

func Blow() {
	panic(errors.New("boom"))
}

func BlowAnonymous() {
	panic("something went wrong")
}

func BlowProperly(n int) {
	if n < 0 {
		panic("noisy: n must be non-negative")
	}
	panic(fmt.Sprintf("noisy %d: unreachable", n))
}

func BlowConcat(err error) {
	panic("noisy: wrapped: " + err.Error())
}
`,
	})
	const f = "noisy.go"
	want(t, findings, "hygiene/print", f, 10) // fmt.Println
	want(t, findings, "hygiene/print", f, 11) // os.Stdout
	want(t, findings, "hygiene/print", f, 12) // builtin println
	want(t, findings, "hygiene/panic", f, 16) // panic(err)
	want(t, findings, "hygiene/panic", f, 20) // missing package prefix
	if got := count(findings, "hygiene/panic"); got != 2 {
		t.Errorf("hygiene/panic findings = %d, want 2 (prefixed panics are fine)\n%s", got, render(findings))
	}
}

func TestHygieneAllowsPrintingInCmd(t *testing.T) {
	findings := checkModule(t, map[string]string{
		"cmd/tool/main.go": `package main

import "fmt"

func main() {
	fmt.Println("tables go to stdout")
	panic("whatever")
}
`,
	})
	wantNone(t, findings, "hygiene/print")
	wantNone(t, findings, "hygiene/panic")
}

func TestCleanModuleHasNoFindings(t *testing.T) {
	findings := checkModule(t, map[string]string{
		"internal/calm/calm.go": `package calm

import "fmt"

// Describe formats n without touching any forbidden API.
func Describe(n int) (string, error) {
	if n < 0 {
		return "", fmt.Errorf("calm: negative %d", n)
	}
	return fmt.Sprintf("n=%d", n), nil
}
`,
	})
	if len(findings) != 0 {
		t.Errorf("clean module produced findings:\n%s", render(findings))
	}
}

func TestFindingString(t *testing.T) {
	findings := checkModule(t, map[string]string{
		"internal/p/p.go": "package p\n\nimport \"time\"\n\nvar T = time.Now\n",
	})
	if len(findings) == 0 {
		t.Fatal("expected a finding for the time.Now reference")
	}
	s := findings[0].String()
	if !strings.Contains(s, "p.go:5: determinism/time:") {
		t.Errorf("String() = %q, want file:line: rule: message shape", s)
	}
}
