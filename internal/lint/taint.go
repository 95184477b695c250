package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// This file implements the transitive determinism pass: every unwaived
// determinism violation site (wall-clock read, global math/rand use, go
// statement outside the concurrency allowlist, order-leaking map range)
// becomes a taint source on its enclosing function, taint propagates
// backwards over the call graph, and every exported entry point of an
// internal package that can reach a source is reported under
// determinism/reach with the shortest call path.
//
// Waivers and the ConcurrencyAllowlist propagate along edges by
// construction: a waived site, or a go statement in an allowlisted
// package, never becomes a source, so neither the function containing it
// nor any caller is tainted through it.

// Taint source kinds.
const (
	taintTime      = "time"
	taintRand      = "rand"
	taintGoroutine = "goroutine"
	taintMapRange  = "maprange"
)

// taintKinds lists the kinds in deterministic reporting order.
var taintKinds = []string{taintGoroutine, taintMapRange, taintRand, taintTime}

// taintSource is one unwaived violation site inside a module function.
type taintSource struct {
	fn   *types.Func
	kind string
	pos  token.Pos
	what string // human description, e.g. "call to time.Now"
}

// taintStep records, for one (function, kind), the next hop on the
// shortest path towards the nearest source of that kind. next is nil
// when the function itself contains the source.
type taintStep struct {
	next *types.Func
	src  *taintSource
	dist int
}

// taintResult maps every reachable function to its per-kind shortest
// step. Read-only after construction.
type taintResult struct {
	reach map[*types.Func]map[string]taintStep
}

// collectTaintSources scans fd's body for unwaived determinism sources.
// The checker's waiver maps are consulted (and their usage recorded)
// exactly as the direct determinism rules do.
func (c *checker) collectTaintSources(fn *types.Func, fd *ast.FuncDecl) []taintSource {
	var out []taintSource
	add := func(kind string, pos token.Pos, what string) {
		out = append(out, taintSource{fn: fn, kind: kind, pos: pos, what: what})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if name, ok := c.timeCall(n); ok && !c.waived(n.Pos()) {
				add(taintTime, n.Pos(), "call to time."+name)
			}
		case *ast.Ident:
			if obj := c.pkg.Info.Uses[n]; obj != nil && obj.Pkg() != nil {
				p := obj.Pkg().Path()
				if (p == "math/rand" || p == "math/rand/v2") && !c.waived(n.Pos()) {
					add(taintRand, n.Pos(), "use of "+p+"."+obj.Name())
				}
			}
		case *ast.GoStmt:
			if !c.concurrencyAllowed() && !c.waived(n.Pos()) {
				add(taintGoroutine, n.Pos(), "go statement")
			}
		case *ast.RangeStmt:
			if write := c.mapRangeViolation(n); write != nil && !c.waived(n.Pos()) {
				add(taintMapRange, n.Pos(), "order-leaking map range")
			}
		}
		return true
	})
	return out
}

// propagateTaint runs, per source kind, a multi-source breadth-first
// search over the reverse call graph, recording for every reached
// function the next hop towards its nearest source. Frontiers are
// processed in deterministic order so tie-breaks are stable.
func propagateTaint(g *callGraph, sources []taintSource) *taintResult {
	res := &taintResult{reach: make(map[*types.Func]map[string]taintStep)}
	set := func(fn *types.Func, kind string, step taintStep) bool {
		m := res.reach[fn]
		if m == nil {
			m = make(map[string]taintStep)
			res.reach[fn] = m
		}
		if _, done := m[kind]; done {
			return false
		}
		m[kind] = step
		return true
	}
	// Sources sorted by position give a deterministic seed order.
	sorted := append([]taintSource(nil), sources...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].pos < sorted[j].pos })
	for _, kind := range taintKinds {
		var frontier []*types.Func
		for i := range sorted {
			s := &sorted[i]
			if s.kind != kind {
				continue
			}
			if set(s.fn, kind, taintStep{src: s}) {
				frontier = append(frontier, s.fn)
			}
		}
		for dist := 1; len(frontier) > 0; dist++ {
			var next []*types.Func
			for _, fn := range frontier {
				callers := append([]*types.Func(nil), g.callers[fn]...)
				sort.Slice(callers, func(i, j int) bool { return callers[i].Pos() < callers[j].Pos() })
				step := res.reach[fn][kind]
				for _, caller := range callers {
					if set(caller, kind, taintStep{next: fn, src: step.src, dist: dist}) {
						next = append(next, caller)
					}
				}
			}
			frontier = next
		}
	}
	return res
}

// taintKindDescription names what reaching a source of the kind means.
var taintKindDescription = map[string]string{
	taintTime:      "a wall-clock read",
	taintRand:      "global math/rand state",
	taintGoroutine: "a go statement",
	taintMapRange:  "an order-leaking map range",
}

// reach reports, for every exported function or method of the package,
// the determinism sources it can transitively reach through calls. Sites
// inside the entry point itself are covered by the direct determinism
// rules and are not re-reported here.
func (c *checker) reach(a *Analysis) []Finding {
	var fs []Finding
	c.eachFunc(func(_ *ast.File, fd *ast.FuncDecl) {
		if !fd.Name.IsExported() {
			return
		}
		fn, ok := c.pkg.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			return
		}
		kinds := a.taint.reach[fn]
		if kinds == nil {
			return
		}
		for _, kind := range taintKinds {
			step, ok := kinds[kind]
			if !ok || step.dist == 0 {
				continue
			}
			c.report(&fs, fd.Name.Pos(), "determinism/reach",
				"exported %s can reach %s (%s, %s at %s) via %s; determinism violations transitively break seed-reproducibility — fix the site, or waive it there if provably harmless",
				funcDisplay(fn), taintKindDescription[kind], step.src.what,
				relPosition(c.mod, step.src.pos), funcDisplay(step.src.fn),
				renderPath(a, fn, kind))
		}
	})
	return fs
}

// renderPath renders the shortest call path from fn to the nearest
// source of kind, e.g. "router.(*Router).Tick -> alloc.helper".
func renderPath(a *Analysis, fn *types.Func, kind string) string {
	var parts []string
	for fn != nil {
		parts = append(parts, funcDisplay(fn))
		step, ok := a.taint.reach[fn][kind]
		if !ok {
			break
		}
		fn = step.next
	}
	return strings.Join(parts, " -> ")
}

// relPosition renders pos as "relpath:line" relative to the module root,
// so messages stay stable across checkouts.
func relPosition(mod *Module, pos token.Pos) string {
	p := mod.Fset.Position(pos)
	name := p.Filename
	if rel, err := filepath.Rel(mod.Root, name); err == nil && !strings.HasPrefix(rel, "..") {
		name = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}
