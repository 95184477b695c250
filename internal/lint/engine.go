package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"vix/internal/sim"
)

// This file is the analysis engine: module-wide state construction, the
// bounded worker pool that fans per-package passes out, and the cached
// entry point cmd/vixlint uses.
//
// Analysis runs in two phases. The source phase is single-threaded: it
// builds one checker per package, runs the determinism family (whose
// site checks double as taint-source collection), then builds the call
// graph and propagates taint. The package phase runs everything else —
// hygiene, contracts, scratch, escape, exhaustiveness, reach, waiver
// hygiene — on a worker pool, one package per job. Workers only read
// the shared module, graph and taint tables (all frozen after the
// source phase) and each package's checker is handed to exactly one
// worker, so the phase needs no locking. Results land in per-package
// slots and are merged in canonical package order, then sorted, so the
// output is byte-identical regardless of worker scheduling.

// Analysis is the module-wide analysis state: parsed packages, the call
// graph, propagated determinism taint, and one checker per package.
// Construct it with NewAnalysis; all state is read-only afterwards.
type Analysis struct {
	mod      *Module
	graph    *callGraph
	taint    *taintResult
	writes   *writeAnalysis
	checkers map[string]*checker
	// shardFindings holds the parallel/sharedwrite and parallel/phase
	// findings keyed by the Do-site package, computed in the source
	// phase (the pass spans packages and marks waiver usage).
	shardFindings map[string][]Finding
}

// NewAnalysis runs the single-threaded source phase over mod: direct
// determinism findings, taint-source collection, call-graph
// construction, and taint propagation.
func NewAnalysis(mod *Module) *Analysis {
	a := &Analysis{mod: mod, checkers: make(map[string]*checker)}
	var sources []taintSource
	for _, pkg := range mod.Packages() {
		c := newChecker(mod, pkg)
		a.checkers[pkg.Path] = c
		if !isInternal(pkg.Path) {
			continue
		}
		c.early = c.determinism()
		c.eachFunc(func(_ *ast.File, fd *ast.FuncDecl) {
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				sources = append(sources, c.collectTaintSources(fn, fd)...)
			}
		})
	}
	a.graph = buildCallGraph(mod)
	a.taint = propagateTaint(a.graph, sources)
	a.writes = computeWriteEffects(mod, a.graph)
	a.shardFindings = analyzeShardOwnership(a)
	return a
}

// checkPackage runs the package-phase analyzers for one package and
// returns its findings (including the source-phase determinism findings
// held by the checker). Exactly one goroutine calls this per package.
func (a *Analysis) checkPackage(path string) []Finding {
	c := a.checkers[path]
	if c == nil {
		return nil
	}
	fs := append([]Finding(nil), c.early...)
	if isInternal(c.pkg.Path) {
		fs = append(fs, c.hygiene()...)
		fs = append(fs, c.reach(a)...)
		fs = append(fs, c.exhaustive()...)
	}
	if isCmdPath(c.pkg.Path) {
		fs = append(fs, c.closeHygiene()...)
	}
	if isAllocPackage(c.pkg) {
		fs = append(fs, c.contracts()...)
		fs = append(fs, c.scratch()...)
	}
	if !isAllocPath(c.pkg.Path) {
		// The alloc registries implement Allocate; binding its result to
		// scratch fields there is the contract, not a violation.
		fs = append(fs, c.escape()...)
	}
	fs = append(fs, c.mutations()...)
	fs = append(fs, c.directiveFindings()...)
	fs = append(fs, a.shardFindings[path]...)
	// Last: every waiver-consulting pass for this package has run, so
	// usage tracking for the stale-waiver sweep is complete.
	fs = append(fs, c.waiverFindings()...)
	return fs
}

// run checks the given packages on a pool of workers and returns one
// findings slice per path, index-aligned with paths.
func (a *Analysis) run(paths []string, workers int) [][]Finding {
	if workers < 1 {
		workers = 1
	}
	if workers > len(paths) {
		workers = len(paths)
	}
	results := make([][]Finding, len(paths))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// Goroutines are legal here: internal/lint is on the
		// ConcurrencyAllowlist because findings land in per-index slots
		// and are sorted before reporting, so worker scheduling cannot
		// reach the output.
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = a.checkPackage(paths[i])
			}
		}()
	}
	for i := range paths {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// Callees returns the display names of the functions the call graph
// resolves as direct callees of the named function ("F" or "Recv.M") in
// pkgPath. It exists for tests that pin the graph's resolution quality.
func (a *Analysis) Callees(pkgPath, name string) []string {
	node := a.graph.lookupFunc(pkgPath, name)
	if node == nil {
		return nil
	}
	out := make([]string, 0, len(node.callees))
	for _, callee := range node.callees {
		out = append(out, funcDisplay(callee))
	}
	return out
}

// PoolJobs returns the display names of every sim.Pool job the shard-
// ownership pass resolved, sorted. It exists for tests that pin job
// detection on the real tree (the method-value act.fn and the harness
// job literal must both resolve).
func (a *Analysis) PoolJobs() []string {
	var out []string
	for _, job := range findPoolJobs(a) {
		out = append(out, job.display())
	}
	sort.Strings(out)
	return out
}

// FuncWrites returns the rendered write effects of the named function
// ("F" or "Recv.M") in pkgPath, sorted. It exists for tests that pin
// the write-effect summaries the parallel rules judge.
func (a *Analysis) FuncWrites(pkgPath, name string) []string {
	node := a.graph.lookupFunc(pkgPath, name)
	if node == nil {
		return nil
	}
	fx := a.writes.sums[node.fn]
	if fx == nil {
		return nil
	}
	var out []string
	for _, k := range sim.SortedKeys(fx.writes) {
		out = append(out, effectDisplay(node.fn, fx.writes[k]))
	}
	sort.Strings(out)
	return out
}

// Reaches reports whether the named function can transitively reach a
// determinism source of the given kind ("time", "rand", "goroutine",
// "maprange"). A source inside the function itself counts.
func (a *Analysis) Reaches(pkgPath, name, kind string) bool {
	node := a.graph.lookupFunc(pkgPath, name)
	if node == nil {
		return false
	}
	_, ok := a.taint.reach[node.fn][kind]
	return ok
}

// CheckModule runs every analyzer family over an already-loaded module,
// returning findings sorted by file, line and rule.
func CheckModule(mod *Module) []Finding {
	a := NewAnalysis(mod)
	paths := pkgPaths(mod)
	var fs []Finding
	for _, r := range a.run(paths, defaultWorkers()) {
		fs = append(fs, r...)
	}
	sortFindings(fs)
	return fs
}

// pkgPaths lists the module's package paths in canonical order.
func pkgPaths(mod *Module) []string {
	pkgs := mod.Packages()
	paths := make([]string, len(pkgs))
	for i, pkg := range pkgs {
		paths[i] = pkg.Path
	}
	return paths
}

// defaultWorkers sizes the pool when the caller does not.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// sortFindings orders findings by file, line, rule, then message.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// Options configures CheckWithOptions.
type Options struct {
	// Workers bounds concurrent package checks; 0 means GOMAXPROCS.
	Workers int
	// Cache reuses cached findings for packages whose content-hash key
	// (own files plus transitive module dependencies) is unchanged.
	Cache bool
	// CacheDir overrides the cache location; default <root>/.vixlint.
	CacheDir string
}

// Stats reports how much work a CheckWithOptions call performed.
type Stats struct {
	// Packages is the number of module packages discovered.
	Packages int
	// Cached is how many packages were served from the finding cache.
	Cached int
	// Analyzed is how many packages were type-checked and analyzed this
	// run. On a fully warm cache it is zero and the module is never
	// type-checked at all.
	Analyzed int
	// Workers is the pool size used.
	Workers int
}

// CheckWithOptions is the engine entry point behind cmd/vixlint: it
// loads and checks the module at root, optionally consulting the
// finding cache so unchanged packages are not re-analyzed.
func CheckWithOptions(root string, opts Options) ([]Finding, Stats, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	stats := Stats{Workers: workers}
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, stats, err
	}
	if !opts.Cache {
		mod, err := Load(absRoot)
		if err != nil {
			return nil, stats, err
		}
		a := NewAnalysis(mod)
		paths := pkgPaths(mod)
		stats.Packages, stats.Analyzed = len(paths), len(paths)
		var fs []Finding
		for _, r := range a.run(paths, workers) {
			fs = append(fs, r...)
		}
		sortFindings(fs)
		return fs, stats, nil
	}

	cacheDir := opts.CacheDir
	if cacheDir == "" {
		cacheDir = filepath.Join(absRoot, cacheDirName)
	}
	idx, err := indexModule(absRoot)
	if err != nil {
		return nil, stats, err
	}
	stats.Packages = len(idx.packages)
	var fs []Finding
	var misses []string
	for _, p := range idx.packages {
		if entry, ok := loadCacheEntry(cacheDir, p); ok {
			fs = append(fs, entry.resolve(absRoot)...)
			stats.Cached++
		} else {
			misses = append(misses, p.path)
		}
	}
	if len(misses) > 0 {
		// At least one package changed: load and run the source phase on
		// the whole module (inter-procedural passes need every body), but
		// run the package phase only on the misses.
		mod, err := Load(absRoot)
		if err != nil {
			return nil, stats, err
		}
		a := NewAnalysis(mod)
		stats.Analyzed = len(misses)
		for i, r := range a.run(misses, workers) {
			fs = append(fs, r...)
			p := idx.byPath[misses[i]]
			pkg := mod.Pkgs[misses[i]]
			// Packages with type errors are analyzed best-effort every
			// run rather than cached.
			if p != nil && pkg != nil && len(pkg.TypeErrs) == 0 {
				storeCacheEntry(cacheDir, absRoot, p, r)
			}
		}
	}
	sortFindings(fs)
	return fs, stats, nil
}
