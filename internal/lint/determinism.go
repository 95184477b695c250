package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// ConcurrencyAllowlist names the packages — by import path relative to
// the module root — where go statements are legal. Simulation packages
// may not spawn goroutines, because goroutine interleaving is a
// scheduler decision, not a seed decision. Growing this list is a
// reviewed act: the lint self-check pins its exact contents.
var ConcurrencyAllowlist = map[string]bool{
	// internal/sim hosts the shared bounded worker pool (sim.Pool). The
	// harness's grid fan-out and the network's sharded tick run on it
	// through Do, whose two call sites TestPoolDoSitesArePinned pins;
	// neither package contains a go statement of its own.
	"internal/sim": true,
	// internal/service is the vixd serving layer: runner goroutines
	// executing queued cases and per-suite watcher channels. Scheduling
	// cannot reach results — a case's value is a pure function of its
	// spec (it executes through the harness over the content-addressed
	// store), and result streams are emitted in case order, not
	// completion order.
	"internal/service": true,
}

// concurrencyAllowed reports whether the package under analysis may use
// go statements.
func (c *checker) concurrencyAllowed() bool {
	return ConcurrencyAllowlist[strings.TrimPrefix(c.pkg.Path, c.mod.Path+"/")]
}

// determinism runs the determinism family over an internal package:
// wall-clock reads, global randomness, goroutines, and order-leaking map
// iteration are all ways for a run to differ from its seed.
func (c *checker) determinism() []Finding {
	var fs []Finding
	for _, file := range c.pkg.Files {
		c.checkRandImports(&fs, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				c.checkTimeCall(&fs, file, n)
			case *ast.GoStmt:
				if !c.concurrencyAllowed() && !c.waived(n.Pos()) {
					c.report(&fs, n.Pos(), "determinism/goroutine",
						"go statement in simulation code: goroutine interleaving is not reproducible from a seed; fan-out belongs on sim.Pool (internal/sim)")
				}
			case *ast.RangeStmt:
				c.checkMapRange(&fs, n)
			}
			return true
		})
	}
	return fs
}

// checkRandImports flags imports of the math/rand packages.
func (c *checker) checkRandImports(fs *[]Finding, file *ast.File) {
	for _, imp := range file.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if path == "math/rand" || path == "math/rand/v2" {
			if !c.waived(imp.Pos()) {
				c.report(fs, imp.Pos(), "determinism/rand",
					"import of %s: all randomness must flow through sim.RNG so experiments replay from a seed", path)
			}
		}
	}
}

// timeFuncs are the wall-clock reads the determinism family forbids.
var timeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// checkTimeCall flags selector references to time.Now / time.Since /
// time.Until. The violation is established before the waiver is
// consulted, so waiver usage tracking (the stale-waiver sweep) stays
// accurate.
func (c *checker) checkTimeCall(fs *[]Finding, file *ast.File, sel *ast.SelectorExpr) {
	if !timeFuncs[sel.Sel.Name] {
		return
	}
	if obj, typed := c.pkg.Info.Uses[sel.Sel]; typed {
		if fn, ok := obj.(*types.Func); !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			return
		}
	} else if !selectsPackage(c.pkg, file, sel, "time") {
		return // AST-only fallback when type information is missing
	}
	if c.waived(sel.Pos()) {
		return
	}
	c.report(fs, sel.Pos(), "determinism/time",
		"call to time.%s: simulation code must use cycle counts, not the wall clock", sel.Sel.Name)
}

// selectsPackage reports whether sel's receiver is an identifier bound to
// an import of the given path — the AST-only fallback used when type
// information is unavailable.
func selectsPackage(pkg *Package, file *ast.File, sel *ast.SelectorExpr, path string) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	for _, imp := range file.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		name := p
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if id.Name == name {
			return true
		}
	}
	return false
}

// checkMapRange flags for-range loops over maps whose bodies write to
// state declared outside the loop. Iterating a map is fine when the loop
// only reads or fills loop-local scratch; it is a reproducibility bug the
// moment visit order can reach results.
func (c *checker) checkMapRange(fs *[]Finding, rng *ast.RangeStmt) {
	tv, ok := c.pkg.Info.Types[rng.X]
	if !ok || tv.Type == nil {
		return // no type info; cannot tell maps from slices
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	write := c.findNonLocalWrite(rng)
	if write == nil || c.waived(rng.Pos()) {
		return
	}
	c.report(fs, rng.Pos(), "determinism/maprange",
		"map iteration order is randomised but the loop body writes to non-local state (line %d); sort the keys first or add a //vixlint:ordered waiver",
		c.mod.Fset.Position(write.Pos()).Line)
}

// findNonLocalWrite returns the first statement in the range body that
// writes to a variable declared outside the range statement, or nil.
func (c *checker) findNonLocalWrite(rng *ast.RangeStmt) ast.Node {
	var found ast.Node
	local := func(e ast.Expr) bool { return c.declaredWithin(e, rng) }
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				// ":=" defines new (local) variables; only plain
				// assignments can reach pre-existing state. But a
				// redefinition like `x, err := f()` may still assign an
				// outer x, so check declaration sites either way.
				if !local(lhs) {
					found = n
					return false
				}
			}
		case *ast.IncDecStmt:
			if !local(n.X) {
				found = n
				return false
			}
		case *ast.SendStmt:
			// A channel send publishes in iteration order by definition.
			found = n
			return false
		}
		return true
	})
	return found
}

// declaredWithin reports whether the root variable of the assignable
// expression e is declared inside the range statement (the key/value
// variables or body locals). Unresolvable roots — calls, type assertions
// — are conservatively treated as non-local.
func (c *checker) declaredWithin(e ast.Expr, rng *ast.RangeStmt) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			obj := c.pkg.Info.Uses[x]
			if obj == nil {
				obj = c.pkg.Info.Defs[x]
			}
			if obj == nil {
				return false
			}
			return obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End()
		default:
			return false
		}
	}
}
