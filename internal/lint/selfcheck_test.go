package lint_test

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"vix/internal/lint"
)

// repoRoot locates the module root above this package's directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test's working directory")
		}
		dir = parent
	}
}

// TestRepoIsLintClean runs every vixlint analyzer over the repository's
// own source, so `go test ./...` — the tier-1 gate — fails the moment a
// change reintroduces wall-clock reads, global randomness, order-leaking
// map iteration, a non-exhaustive enum switch, or library-code printing.
// This is the same analysis `make lint` (cmd/vixlint) runs.
func TestRepoIsLintClean(t *testing.T) {
	findings, err := lint.Check(repoRoot(t))
	if err != nil {
		t.Fatalf("lint.Check: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Logf("fix the findings or, for provably order-independent map iteration, add a justified //vixlint:ordered waiver (see package lint docs)")
	}
}

// TestCheckIsDeterministic runs lint.Check twice over the real tree and
// over a fixture with findings in several packages: both runs must
// return the same findings in (file, line, rule) order, so the output
// is a function of the source alone.
func TestCheckIsDeterministic(t *testing.T) {
	for _, root := range []string{repoRoot(t), filepath.Join("testdata", "corpus", "reach")} {
		first, err := lint.Check(root)
		if err != nil {
			t.Fatalf("lint.Check(%s): %v", root, err)
		}
		second, err := lint.Check(root)
		if err != nil {
			t.Fatalf("lint.Check(%s) again: %v", root, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s: two runs differ:\n%v\n%v", root, first, second)
		}
		if !sort.SliceIsSorted(first, func(i, j int) bool {
			a, b := first[i], first[j]
			if a.Pos.Filename != b.Pos.Filename {
				return a.Pos.Filename < b.Pos.Filename
			}
			if a.Pos.Line != b.Pos.Line {
				return a.Pos.Line < b.Pos.Line
			}
			return a.Rule < b.Rule
		}) {
			t.Errorf("%s: findings are not sorted by file, line, rule:\n%v", root, first)
		}
	}
}

// TestConcurrencyAllowlistIsPinned makes growing the concurrency
// allowlist a reviewed act: the packages where goroutines are legal are
// exactly internal/sim (home of the bounded worker pool the harness and
// the network tick run on, through the Do sites TestPoolDoSitesArePinned
// pins) and internal/service (the vixd serving layer, whose runner
// goroutines execute cases through the harness over the content-
// addressed store and whose result streams are emitted in case order,
// so scheduling cannot reach results). TestRepoIsLintClean then finds a
// go statement anywhere else in internal/. Anyone adding a package here
// must also update this test — and justify why the new package's
// concurrency cannot leak scheduling into results.
func TestConcurrencyAllowlistIsPinned(t *testing.T) {
	want := map[string]bool{
		"internal/sim":     true,
		"internal/service": true,
	}
	if len(lint.ConcurrencyAllowlist) != len(want) {
		t.Fatalf("ConcurrencyAllowlist = %v, want exactly %v", lint.ConcurrencyAllowlist, want)
	}
	for pkg := range want {
		if !lint.ConcurrencyAllowlist[pkg] {
			t.Errorf("ConcurrencyAllowlist missing %q", pkg)
		}
	}
}

// TestRepoTypeChecks asserts the analysis ran with full type information:
// analyzer fallbacks exist for broken code, but the repo itself must
// type-check cleanly or rules like determinism/maprange lose their teeth.
func TestRepoTypeChecks(t *testing.T) {
	mod, err := lint.Load(repoRoot(t))
	if err != nil {
		t.Fatalf("lint.Load: %v", err)
	}
	if len(mod.Pkgs) < 20 {
		t.Errorf("loaded only %d packages; expected the full module (loader discovery broke?)", len(mod.Pkgs))
	}
	for _, pkg := range mod.Packages() {
		for _, e := range pkg.TypeErrs {
			t.Errorf("%s: type error: %v", pkg.Path, e)
		}
	}
}

// TestPoolDoSitesArePinned makes growing intra-run concurrency a
// reviewed act: the non-test uses of (*sim.Pool).Do — calls and method
// values alike — sit in exactly harness.Run and (*Network).tickRouters.
// Nothing static judges what a pool job may write; the race detector and
// the byte-identity lockstep tests do, and only over jobs a test drives
// at more than one worker (DESIGN.md, "Network step").
func TestPoolDoSitesArePinned(t *testing.T) {
	mod, err := lint.Load(repoRoot(t))
	if err != nil {
		t.Fatalf("lint.Load: %v", err)
	}
	want := map[string]bool{
		"vix/internal/harness.Run":                    true,
		"(*vix/internal/network.Network).tickRouters": true,
	}
	got := make(map[string]bool)
	for _, pkg := range mod.Packages() {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				site := pkg.Path + " (package level)"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						site = fn.FullName()
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && fn.FullName() == "(*vix/internal/sim.Pool).Do" {
						got[site] = true
						if !want[site] {
							t.Errorf("%s: new sim.Pool.Do site in %s; add a lockstep test that drives its job at >= 2 workers under `make race` (the only guard of what a pool job writes), then pin the site here",
								mod.Fset.Position(id.Pos()), site)
						}
					}
					return true
				})
			}
		}
	}
	for site := range want {
		if !got[site] {
			t.Errorf("no sim.Pool.Do use in %s; if the site moved, move its lockstep test and this pin with it", site)
		}
	}
}
