package lint

import (
	"sort"

	"vix/internal/sim"
)

// This file is the analysis engine: module-wide state construction and
// the one serial pass over it.
//
// Analysis runs in two phases on the calling goroutine. The source
// phase builds one checker per package, then the call graph, the
// write-effect summaries and the shard-ownership pass — the one analysis
// that spans packages. The package phase runs everything else —
// determinism, hygiene, exhaustiveness, directive and waiver hygiene —
// one package at a time in canonical (import path) order. Findings are
// sorted before they are returned, so the output depends on the source
// alone.

// Analysis is the module-wide analysis state: parsed packages, the call
// graph, write-effect summaries, and one checker per package. Construct
// it with NewAnalysis; all state is read-only afterwards.
type Analysis struct {
	mod      *Module
	graph    *callGraph
	writes   *writeAnalysis
	checkers map[string]*checker
	// shardFindings holds the parallel/sharedwrite and parallel/phase
	// findings keyed by the Do-site package, computed in the source
	// phase (the pass spans packages and marks waiver usage).
	shardFindings map[string][]Finding
}

// NewAnalysis runs the source phase over mod: call-graph construction
// and the write-effect and shard-ownership passes.
func NewAnalysis(mod *Module) *Analysis {
	a := &Analysis{mod: mod, checkers: make(map[string]*checker)}
	for _, pkg := range mod.Packages() {
		a.checkers[pkg.Path] = newChecker(mod, pkg)
	}
	a.graph = buildCallGraph(mod)
	a.writes = computeWriteEffects(mod, a.graph)
	a.shardFindings = analyzeShardOwnership(a)
	return a
}

// checkPackage runs the package-phase analyzers for one package and
// returns its findings.
func (a *Analysis) checkPackage(path string) []Finding {
	c := a.checkers[path]
	if c == nil {
		return nil
	}
	var fs []Finding
	if isInternal(c.pkg.Path) {
		fs = append(fs, c.determinism()...)
		fs = append(fs, c.hygiene()...)
		fs = append(fs, c.exhaustive()...)
	}
	if isCmdPath(c.pkg.Path) {
		fs = append(fs, c.closeHygiene()...)
	}
	fs = append(fs, c.directiveFindings()...)
	fs = append(fs, a.shardFindings[path]...)
	// Last: every waiver-consulting pass for this package has run, so
	// usage tracking for the stale-waiver sweep is complete.
	fs = append(fs, c.waiverFindings()...)
	return fs
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

// Check loads the module rooted at root and runs every analyzer family
// over every package, returning findings sorted by file, line and rule.
// It is the one entry point: cmd/vixlint and the self-check test both
// call it.
func Check(root string) ([]Finding, error) {
	mod, err := Load(root)
	if err != nil {
		return nil, err
	}
	a := NewAnalysis(mod)
	var fs []Finding
	for _, pkg := range mod.Packages() {
		fs = append(fs, a.checkPackage(pkg.Path)...)
	}
	sortFindings(fs)
	return fs, nil
}

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
