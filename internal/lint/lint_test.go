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
	})
	const f = "waved.go"
	// The justified waiver suppresses its loop; the bare one suppresses
	// too but is itself flagged for the missing justification.
	want(t, findings, "determinism/waiver", f, 12)
	want(t, findings, "determinism/maprange", f, 19)
	if got := count(findings, "determinism/maprange"); got != 1 {
		t.Errorf("maprange findings = %d, want only NotWaived's\n%s", got, render(findings))
	}
}

// TestRetiredDirectivesAreUnknown pins that the markers of the deleted
// escape and state gates no longer parse: a straggler reports
// directive/unknown like any typo instead of rotting silently.
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
`,
	})
	const f = "old.go"
	want(t, findings, "directive/unknown", f, 3)
	want(t, findings, "directive/unknown", f, 7)
	want(t, findings, "directive/unknown", f, 11)
	if len(findings) != 3 {
		t.Errorf("want only the three directive findings\n%s", render(findings))
	}
}

// TestConcurrencyAllowlist covers both sides of the goroutine rule: go
// statements are legal in the allowlisted orchestration packages
// (internal/harness among them) and nowhere else — not in simulation
// packages like internal/alloc, and not in a package merely named
// harness at another path. Every other determinism rule still binds
// inside the allowlisted packages.
func TestConcurrencyAllowlist(t *testing.T) {
	findings := checkModule(t, map[string]string{
		"internal/harness/pool.go": `package harness

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
		"internal/nested/harness/pool.go": `package harness

func AlsoSneaky(fn func()) {
	go fn()
}
`,
	})
	wantNone(t, findings, "determinism/rand")
	if got := count(findings, "determinism/goroutine"); got != 2 {
		t.Errorf("goroutine findings = %d, want 2 (alloc and nested/harness only)\n%s", got, render(findings))
	}
	want(t, findings, "determinism/goroutine", "alloc/pool.go", 4)
	want(t, findings, "determinism/goroutine", "nested/harness/pool.go", 4)
	// The allowlist covers goroutines only: wall-clock reads in the
	// harness still need an explicit, justified waiver.
	want(t, findings, "determinism/time", "internal/harness/pool.go", 20)
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

// allocRegistry is a minimal registry package exercising every contracts
// rule: KindUnlisted is missing from Kinds() and New, Mangler's Name
// disagrees with its Kind, and Mangler.Allocate mutates the request set.
const allocRegistry = `package alloc

type Kind string

const (
	KindGood     Kind = "good"
	KindUnlisted Kind = "unlisted"
	KindMangler  Kind = "mangler"
)

func Kinds() []Kind { return []Kind{KindGood, KindMangler} }

type Config struct{}

type Request struct{ Age int }

type RequestSet struct {
	Config   Config
	Requests []Request
}

type Grant struct{}

type Allocator interface {
	Name() string
	Allocate(rs *RequestSet) []Grant
	Reset()
}

func New(kind Kind, cfg Config) (Allocator, error) {
	switch kind {
	case KindGood:
		return NewGood(cfg), nil
	case KindMangler:
		return NewMangler(cfg), nil
	}
	return nil, nil
}

type Good struct{}

func NewGood(Config) *Good                    { return &Good{} }
func (g *Good) Name() string                  { return "good" }
func (g *Good) Allocate(rs *RequestSet) []Grant {
	for i := range rs.Requests {
		_ = rs.Requests[i].Age
	}
	return nil
}
func (g *Good) Reset() {}

type Mangler struct{}

func NewMangler(Config) *Mangler { return &Mangler{} }
func (m *Mangler) Name() string  { return "prankster" }
func (m *Mangler) Allocate(rs *RequestSet) []Grant {
	rs.Requests = append(rs.Requests, Request{})
	return nil
}
func (m *Mangler) Reset() {}
`

func TestContractsFamily(t *testing.T) {
	findings := checkModule(t, map[string]string{
		"internal/alloc/alloc.go": allocRegistry,
	})
	const f = "alloc.go"
	// KindUnlisted: absent from Kinds() and from New's switch.
	if got := count(findings, "contracts/registry"); got != 2 {
		t.Errorf("contracts/registry findings = %d, want 2\n%s", got, render(findings))
	}
	want(t, findings, "contracts/name", f, 55)   // Mangler.Name returns "prankster", Kind is "mangler"
	want(t, findings, "contracts/mutate", f, 57) // append to rs.Requests
	// Good is fully conformant: reading rs.Requests must not be flagged.
	for _, fd := range findings {
		if fd.Rule == "contracts/mutate" && fd.Pos.Line < 50 {
			t.Errorf("read-only Allocate flagged: %s", fd)
		}
	}
}

func TestContractsMutateOtherForms(t *testing.T) {
	findings := checkModule(t, map[string]string{
		"internal/alloc/alloc.go": `package alloc

type Request struct{ Age int }

type RequestSet struct{ Requests []Request }

func Scribble(rs *RequestSet) {
	rs.Requests[0].Age = 7
}

func Shrink(rs *RequestSet) {
	rs.Requests = rs.Requests[:0]
}

func Sort(rs *RequestSet) {
	sortRequests(rs.Requests)
}

func sortRequests([]Request) {}
`,
		"internal/user/user.go": `package user

import (
	"sort"

	"example.com/m/internal/alloc"
)

func Reorder(rs *alloc.RequestSet) {
	sort.Slice(rs.Requests, func(i, j int) bool { return rs.Requests[i].Age < rs.Requests[j].Age })
}

func Inspect(rs *alloc.RequestSet) int {
	return len(rs.Requests)
}
`,
	})
	want(t, findings, "contracts/mutate", "alloc.go", 8)  // element write
	want(t, findings, "contracts/mutate", "alloc.go", 12) // reslice
	want(t, findings, "contracts/mutate", "user.go", 10)  // sort.Slice in another package
	if got := count(findings, "contracts/mutate"); got != 3 {
		t.Errorf("contracts/mutate findings = %d, want 3 (Inspect and sortRequests are clean)\n%s", got, render(findings))
	}
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

// allocScratchModule exercises contracts/scratch: Greedy makes a fresh
// grants slice per Allocate call, Scratchy reuses a constructor-built
// buffer, Waived allocates per call behind a justified waiver, and Bare
// carries a waiver with no justification.
const allocScratchModule = `package alloc

type Config struct{}

type Request struct{ Age int }

type RequestSet struct {
	Config   Config
	Requests []Request
}

type Grant struct{}

type Allocator interface {
	Name() string
	Allocate(rs *RequestSet) []Grant
	Reset()
}

type Greedy struct{}

func (g *Greedy) Name() string { return "greedy" }
func (g *Greedy) Allocate(rs *RequestSet) []Grant {
	grants := make([]Grant, 0, 4)
	return grants
}
func (g *Greedy) Reset() {}

type Scratchy struct{ grants []Grant }

func NewScratchy(Config) *Scratchy { return &Scratchy{grants: make([]Grant, 0, 4)} }
func (s *Scratchy) Name() string   { return "scratchy" }
func (s *Scratchy) Allocate(rs *RequestSet) []Grant {
	s.grants = s.grants[:0]
	marks := make([]bool, 4)
	_ = marks
	return s.grants
}
func (s *Scratchy) Reset() {}

type Waived struct{}

func (w *Waived) Name() string { return "waived" }
func (w *Waived) Allocate(rs *RequestSet) []Grant {
	//vixlint:alloc diagnostic allocator, never on the cycle loop's hot path
	return make([]Grant, 0)
}
func (w *Waived) Reset() {}

type Bare struct{}

func (b *Bare) Name() string { return "bare" }
func (b *Bare) Allocate(rs *RequestSet) []Grant {
	//vixlint:alloc
	return make([]Grant, 0)
}
func (b *Bare) Reset() {}
`

func TestContractsScratch(t *testing.T) {
	findings := checkModule(t, map[string]string{
		"internal/alloc/alloc.go": allocScratchModule,
	})
	const f = "alloc.go"
	want(t, findings, "contracts/scratch", f, 24) // Greedy: make([]Grant, ...) per call
	want(t, findings, "contracts/waiver", f, 54)  // Bare: waiver without justification
	if got := count(findings, "contracts/scratch"); got != 1 {
		t.Errorf("contracts/scratch findings = %d, want 1 (Scratchy reuses scratch and only allocates marks; Waived and Bare are waived)\n%s",
			got, render(findings))
	}
}

// TestContractsScratchOutsideAllocPackage: the rule is scoped to alloc
// registry packages; an Allocate method elsewhere may build slices as it
// pleases.
func TestContractsScratchOutsideAllocPackage(t *testing.T) {
	findings := checkModule(t, map[string]string{
		"internal/alloc/alloc.go": `package alloc

type Config struct{}

type Request struct{ Age int }

type RequestSet struct {
	Config   Config
	Requests []Request
}

type Grant struct{}
`,
		"internal/custom/custom.go": `package custom

import "example.com/m/internal/alloc"

type Mine struct{}

func (m *Mine) Allocate(rs *alloc.RequestSet) []alloc.Grant {
	return make([]alloc.Grant, 0)
}
`,
	})
	wantNone(t, findings, "contracts/scratch")
}
