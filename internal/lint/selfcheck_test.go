package lint_test

import (
	"go/ast"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
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
// exactly internal/harness (the orchestration layer), internal/sim
// (home of the bounded worker pool the harness and the network run on),
// internal/network (whose parallel tick shards routers across that pool
// and merges in router-index order, keeping output byte-identical for
// any worker count), and internal/service (the vixd serving layer, whose runner
// goroutines execute cases through the harness over the content-
// addressed store and whose result streams are emitted in case order,
// so scheduling cannot reach results). Anyone adding a package here
// must also update this test — and justify why the new package's
// concurrency cannot leak scheduling into results.
func TestConcurrencyAllowlistIsPinned(t *testing.T) {
	want := map[string]bool{
		"internal/harness": true,
		"internal/sim":     true,
		"internal/network": true,
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

// TestHarnessIsTheOnlyConcurrentPackage walks the repo's own ASTs and
// asserts go statements appear only in the allowlisted packages and
// nowhere else in internal/, the structural property the allowlist
// exists to protect. Since the shared worker pool moved into
// internal/sim, that is where the spawns must actually live: harness
// and network stay on the allowlist because they drive the pool, but
// they are expected to contain no go statements of their own. (The
// goroutine rule itself is exercised on synthetic modules in
// lint_test.go; this covers the real tree.)
func TestHarnessIsTheOnlyConcurrentPackage(t *testing.T) {
	mod, err := lint.Load(repoRoot(t))
	if err != nil {
		t.Fatalf("lint.Load: %v", err)
	}
	allowed := map[string]bool{
		"vix/internal/harness": true,
		"vix/internal/sim":     true,
		"vix/internal/network": true,
		// The vixd service spawns its runner pool directly (it is an
		// orchestration layer like the harness, but its workers live for
		// the server, not one grid), so its go statements are legal.
		"vix/internal/service": true,
	}
	sawPoolGoroutine := false
	for _, pkg := range mod.Packages() {
		pkg := pkg
		if !strings.Contains(pkg.Path, "/internal/") {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if _, ok := n.(*ast.GoStmt); !ok {
					return true
				}
				switch {
				case pkg.Path == "vix/internal/sim":
					sawPoolGoroutine = true
				case pkg.Path == "vix/internal/harness" || pkg.Path == "vix/internal/network":
					t.Errorf("%s: go statement at %s; harness and network must spawn through sim.Pool, not directly",
						pkg.Path, mod.Fset.Position(n.Pos()))
				case !allowed[pkg.Path]:
					t.Errorf("%s: go statement outside the allowlisted packages at %s",
						pkg.Path, mod.Fset.Position(n.Pos()))
				}
				return true
			})
		}
	}
	if !sawPoolGoroutine {
		t.Error("internal/sim no longer spawns goroutines; if the worker pool moved, move the allowlist with it")
	}
}

// TestCallGraphResolvesInterfaceDispatch pins the call graph's
// resolution quality on the real tree: Router.Advance, the tick the
// network runs, calls Allocate through the alloc.Allocator interface,
// and class-hierarchy analysis must resolve that edge to the concrete
// allocator implementations — the shard-ownership pass judges the
// parallel tick's write cone over exactly these edges.
func TestCallGraphResolvesInterfaceDispatch(t *testing.T) {
	mod, err := lint.Load(repoRoot(t))
	if err != nil {
		t.Fatalf("lint.Load: %v", err)
	}
	a := lint.NewAnalysis(mod)
	callees := a.Callees("vix/internal/router", "Router.Advance")
	if len(callees) == 0 {
		t.Fatal("no callees resolved for router.(*Router).Advance")
	}
	var allocates int
	for _, name := range callees {
		if strings.HasSuffix(name, ".Allocate") {
			allocates++
		}
	}
	if allocates < 2 {
		t.Errorf("Router.Advance resolved %d Allocate implementations (callees: %v); interface dispatch should reach every registered allocator",
			allocates, callees)
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

// TestShardOwnershipRootsArePinned makes growing the write-ownership
// table a reviewed act, exactly like the concurrency allowlist: the
// packages whose pool jobs may write anything at all are internal/network
// (worklist slots and routers, partitioned by index) and internal/harness
// (per-job result slots and mutex-guarded bookkeeping). Anyone adding a
// root must update this test and justify the confinement in the entry's
// Why field.
func TestShardOwnershipRootsArePinned(t *testing.T) {
	want := map[string][]string{
		"internal/network": {"(*Network).routers", "(*Network).act", "(*Network).lastTick"},
		"internal/harness": {"captured results", "captured st", "captured jobErrs"},
	}
	if len(lint.ShardOwnershipRoots) != len(want) {
		t.Fatalf("ShardOwnershipRoots covers %d packages, want %d: %v",
			len(lint.ShardOwnershipRoots), len(want), lint.ShardOwnershipRoots)
	}
	for pkg, roots := range want {
		got := lint.ShardOwnershipRoots[pkg]
		if len(got) != len(roots) {
			t.Errorf("ShardOwnershipRoots[%q] = %v, want roots %v", pkg, got, roots)
			continue
		}
		for i, r := range roots {
			if got[i].Root != r {
				t.Errorf("ShardOwnershipRoots[%q][%d].Root = %q, want %q", pkg, i, got[i].Root, r)
			}
			if strings.TrimSpace(got[i].Why) == "" {
				t.Errorf("ShardOwnershipRoots[%q][%d] (%s) has no justification", pkg, i, r)
			}
		}
	}
}

// TestPoolJobsResolveOnRealTree pins job detection where it matters:
// the write-effect rules only guard what they can find, so every real
// Pool.Do site — the network's method-value worklist job and
// the harness's job literal — must resolve.
func TestPoolJobsResolveOnRealTree(t *testing.T) {
	mod, err := lint.Load(repoRoot(t))
	if err != nil {
		t.Fatalf("lint.Load: %v", err)
	}
	a := lint.NewAnalysis(mod)
	jobs := a.PoolJobs()
	want := []string{"func literal in harness.Run", "network.(*Network).runActive"}
	for _, w := range want {
		found := false
		for _, j := range jobs {
			if j == w {
				found = true
			}
		}
		if !found {
			t.Errorf("pool job %q did not resolve (resolved: %v); the parallel rules are blind to it", w, jobs)
		}
	}

	// The tick jobs' write summaries must stay inside the owned roots,
	// and must actually flow through the cone (an empty summary would
	// mean the analysis lost the writes, not that the code is clean).
	owned := map[string][]string{
		"Network.runActive": {"(*Network).act", "(*Network).routers", "(*Network).lastTick"},
	}
	for job, roots := range owned {
		writes := a.FuncWrites("vix/internal/network", job)
		if len(writes) == 0 {
			t.Fatalf("%s has an empty write summary; the write-effect analysis lost its cone", job)
		}
		for _, w := range writes {
			ok := false
			for _, root := range roots {
				if strings.HasPrefix(w, root) {
					ok = true
				}
			}
			if !ok {
				t.Errorf("%s writes %s, outside the declared shard-owned roots; either a race crept in or ShardOwnershipRoots is stale", job, w)
			}
		}
	}
}
