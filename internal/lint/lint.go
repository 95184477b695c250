// Package lint implements vixlint, the simulator's own static-analysis
// pass. It is built from scratch on the standard library's go/parser,
// go/ast, go/token and go/types packages (no golang.org/x/tools) and
// keeps only the rules nothing cheaper enforces: what the compiler, the
// allocator registry table or a runtime test already fails is not
// re-derived statically here (DESIGN.md, "Lint (vixlint)" lists those).
// The analyzer families below run over every non-test package of the
// module, in one serial pass:
//
// Determinism (internal/* only). Every experiment must be exactly
// reproducible from a seed, with all randomness flowing through sim.RNG:
//
//   - determinism/time: no calls to time.Now or time.Since; simulated
//     time is the only clock.
//   - determinism/rand: no imports of math/rand or math/rand/v2; the
//     global generator is seeded per-process, not per-experiment.
//   - determinism/goroutine: no go statements; goroutine interleaving is
//     a scheduler decision, not a seed decision. The exceptions are the
//     ConcurrencyAllowlist packages: the worker pool the harness and the
//     network tick run on (internal/sim) and vixd's runners
//     (internal/service).
//   - determinism/maprange: no for-range over a map whose body writes to
//     state declared outside the loop; Go randomises map iteration order
//     per run, so such writes leak nondeterminism into results.
//
// Each rule reports the violation site itself, in whatever function it
// sits; callers are not re-reported. A determinism finding on a line
// carrying (or immediately preceded by) a "//vixlint:ordered
// <justification>" comment is waived — the waiver is consulted once, at
// the reported site (the import line for determinism/rand); the
// justification text is mandatory (rule determinism/waiver).
//
// Exhaustiveness (internal/* only; see exhaustive.go):
//
//   - exhaustive/switch: a switch over a module-declared enum type
//     (alloc.Kind, router.FlitType, ...) must cover every declared
//     constant or carry an explicit default.
//
// Hygiene (internal/* only; cmd/ and examples/ may print):
//
//   - hygiene/print: no fmt.Print/Printf/Println, no references to
//     os.Stdout or os.Stderr, no builtin print/println. Library code
//     returns values; commands do the talking.
//   - hygiene/panic: panic arguments must carry a constant message
//     prefixed with the package name ("alloc: ...", "router %d: ...") so
//     a crash names its origin; panic(err) and other opaque values are
//     rejected.
//
// Waiver hygiene (all packages): rule waiver/stale flags any
// //vixlint:ordered directive that suppresses nothing; waivers are
// auditable exceptions and dead ones rot. Rule directive/unknown flags
// any //vixlint: comment that is not that one directive (directive.go),
// so a typoed waiver cannot pass for one.
//
// What the two sim.Pool.Do sites may write is not judged here: the race
// detector and the byte-identity lockstep tests see strictly more of it
// (DESIGN.md, "Network step"), and TestPoolDoSitesArePinned keeps the
// sites at two.
//
// Findings are reported as "file:line: rule: message". Check (engine.go)
// is the one entry point: load, every package in import-path order,
// sorted findings — no goroutines, no cache, nothing written.
// cmd/vixlint prints what it returns and the self-check test in this
// package asserts it is empty, which makes `go test ./...` fail on any
// new violation.
package lint

import (
	"fmt"
	"go/token"
	"strings"

	"vix/internal/sim"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos  token.Position // file, line, column
	Rule string         // e.g. "determinism/time"
	Msg  string
}

// String formats the finding as "file:line: rule: message".
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// isInternal reports whether the import path is an internal library
// package (subject to the determinism and hygiene families).
func isInternal(path string) bool {
	return strings.Contains(path, "/internal/") || strings.HasSuffix(path, "/internal")
}

// checker carries one package's analysis state.
type checker struct {
	mod     *Module
	pkg     *Package
	waivers *waiverSet
}

// newChecker builds the checker for one package.
func newChecker(mod *Module, pkg *Package) *checker {
	return &checker{mod: mod, pkg: pkg, waivers: collectWaivers(mod, pkg)}
}

// report appends a finding at pos.
func (c *checker) report(fs *[]Finding, pos token.Pos, rule, format string, args ...any) {
	*fs = append(*fs, Finding{
		Pos:  c.mod.Fset.Position(pos),
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// waiverDirective is the comment marker that suppresses determinism
// findings on its line (or the line directly below the comment).
const waiverDirective = "//vixlint:ordered"

// waiverSet holds the waiver directive's occurrences in a package, and
// tracks which of them actually suppressed a violation — the rest are
// stale.
type waiverSet struct {
	// lines maps file -> directive line -> justification ("" = missing).
	lines map[string]map[int]string
	// used maps file -> directive line -> whether it suppressed anything.
	used map[string]map[int]bool
}

// collectWaivers scans a package's comments for the waiver directive.
// Matching goes through classifyDirective, so only an exact,
// whitespace-delimited directive name counts — //vixlint:orderedjunk is
// an unknown directive (reported by directive/unknown), not a waiver
// with justification "junk".
func collectWaivers(mod *Module, pkg *Package) *waiverSet {
	want := strings.TrimPrefix(waiverDirective, directivePrefix)
	ws := &waiverSet{
		lines: make(map[string]map[int]string),
		used:  make(map[string]map[int]bool),
	}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, cm := range cg.List {
				name, rest, ok := classifyDirective(cm.Text)
				if !ok || name != want {
					continue
				}
				pos := mod.Fset.Position(cm.Pos())
				if ws.lines[pos.Filename] == nil {
					ws.lines[pos.Filename] = make(map[int]string)
					ws.used[pos.Filename] = make(map[int]bool)
				}
				ws.lines[pos.Filename][pos.Line] = rest
			}
		}
	}
	return ws
}

// covers reports whether a directive sits on pos's line or the line
// immediately above, marking the directive as used when it does.
func (ws *waiverSet) covers(mod *Module, pos token.Pos) bool {
	p := mod.Fset.Position(pos)
	lines := ws.lines[p.Filename]
	if lines == nil {
		return false
	}
	hit := false
	for _, l := range []int{p.Line, p.Line - 1} {
		if _, ok := lines[l]; ok {
			ws.used[p.Filename][l] = true
			hit = true
		}
	}
	return hit
}

// waived reports whether a determinism finding at pos is covered by a
// waiver on the same line or the line immediately above.
func (c *checker) waived(pos token.Pos) bool {
	return c.waivers.covers(c.mod, pos)
}

// waiverFindings reports waiver directives that lack a justification —
// a waiver is an auditable exception; "because" is not an audit trail —
// and directives that suppressed nothing (stale).
func (c *checker) waiverFindings() []Finding {
	var fs []Finding
	for _, file := range c.pkg.Files {
		name := c.mod.Fset.Position(file.Pos()).Filename
		for _, line := range sim.SortedKeys(c.waivers.lines[name]) {
			pos := token.Position{Filename: name, Line: line}
			if c.waivers.lines[name][line] == "" {
				fs = append(fs, Finding{
					Pos:  pos,
					Rule: "determinism/waiver",
					Msg:  "vixlint:ordered waiver needs a justification explaining why iteration order cannot leak into results",
				})
			}
			if !c.waivers.used[name][line] {
				fs = append(fs, Finding{
					Pos:  pos,
					Rule: "waiver/stale",
					Msg:  waiverDirective + " waiver suppresses nothing; remove it (stale waivers hide the audit trail)",
				})
			}
		}
	}
	return fs
}
