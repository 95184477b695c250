package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// printFuncs are the fmt functions that write to standard output.
var printFuncs = map[string]bool{"Print": true, "Printf": true, "Println": true}

// hygiene runs the hygiene family over an internal package: library code
// must not write to the process's terminal, and panics must identify the
// package that raised them.
func (c *checker) hygiene() []Finding {
	var fs []Finding
	for _, file := range c.pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				c.checkPrint(&fs, file, n)
			case *ast.CallExpr:
				c.checkPanic(&fs, n)
				c.checkBuiltinPrint(&fs, n)
			}
			return true
		})
	}
	return fs
}

// checkPrint flags fmt.Print* calls and any reference to os.Stdout /
// os.Stderr in library code.
func (c *checker) checkPrint(fs *[]Finding, file *ast.File, sel *ast.SelectorExpr) {
	name := sel.Sel.Name
	switch obj := c.pkg.Info.Uses[sel.Sel].(type) {
	case *types.Func:
		if obj.Pkg() != nil && obj.Pkg().Path() == "fmt" && printFuncs[name] {
			c.report(fs, sel.Pos(), "hygiene/print",
				"fmt.%s in library code: return values or accept an io.Writer; only cmd/ and examples/ print", name)
		}
		return
	case *types.Var:
		if obj.Pkg() != nil && obj.Pkg().Path() == "os" && (name == "Stdout" || name == "Stderr") {
			c.report(fs, sel.Pos(), "hygiene/print",
				"os.%s in library code: accept an io.Writer; only cmd/ and examples/ own the process streams", name)
		}
		return
	}
	// AST fallback when type information is missing.
	if printFuncs[name] && selectsPackage(c.pkg, file, sel, "fmt") {
		c.report(fs, sel.Pos(), "hygiene/print",
			"fmt.%s in library code: return values or accept an io.Writer; only cmd/ and examples/ print", name)
	}
	if (name == "Stdout" || name == "Stderr") && selectsPackage(c.pkg, file, sel, "os") {
		c.report(fs, sel.Pos(), "hygiene/print",
			"os.%s in library code: accept an io.Writer; only cmd/ and examples/ own the process streams", name)
	}
}

// checkBuiltinPrint flags the print/println builtins, which write to
// stderr and are debug leftovers by definition.
func (c *checker) checkBuiltinPrint(fs *[]Finding, call *ast.CallExpr) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || (id.Name != "print" && id.Name != "println") {
		return
	}
	if _, isBuiltin := c.pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	c.report(fs, call.Pos(), "hygiene/print", "builtin %s: debug output does not ship", id.Name)
}

// checkPanic flags panics whose message cannot be traced to a package: a
// panic argument must lead with a constant string prefixed by the package
// name (e.g. "alloc: ..." or "router %d: ..."), directly or as the
// format of an fmt.Sprintf/Errorf wrapper. panic(err) and other opaque
// values strip the crash of its origin.
func (c *checker) checkPanic(fs *[]Finding, call *ast.CallExpr) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" || len(call.Args) != 1 {
		return
	}
	if _, isBuiltin := c.pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	msg, ok := c.messagePrefix(call.Args[0])
	if !ok {
		c.report(fs, call.Pos(), "hygiene/panic",
			"bare panic: the argument must carry a constant %q-prefixed message naming the failed invariant", c.pkg.Name+": ")
		return
	}
	if !strings.HasPrefix(msg, c.pkg.Name+":") && !strings.HasPrefix(msg, c.pkg.Name+" ") {
		c.report(fs, call.Pos(), "hygiene/panic",
			"panic message %q does not identify its package; prefix it with %q", msg, c.pkg.Name+": ")
	}
}

// closeHygiene runs over cmd/ packages only: a binary that constructs
// a network.Network must Close it in the same function (rule
// hygiene/close). With Config.Workers > 1 the network parks pool
// goroutines between cycles; a binary that drops the handle leaks them
// for the process lifetime, and whether Workers exceeds 1 is usually a
// flag decision the linter cannot see — so every construction pays the
// one-line defer (a no-op for serial networks).
func (c *checker) closeHygiene() []Finding {
	var fs []Finding
	c.eachFunc(func(_ *ast.File, fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 || len(as.Lhs) == 0 {
				return true
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok || !constructsNetwork(c.pkg, call) {
				return true
			}
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				return true
			}
			v, ok := c.pkg.Info.Defs[id].(*types.Var)
			if !ok {
				v, ok = c.pkg.Info.Uses[id].(*types.Var)
			}
			if !ok {
				return true
			}
			if returnedFrom(c.pkg, fd.Body, v) {
				// Ownership moves to the caller, whose own binding of the
				// returned *Network is matched by constructsNetwork.
				return true
			}
			if !closedWithin(c.pkg, fd.Body, v) {
				c.report(&fs, as.Pos(), "hygiene/close",
					"network %s is never Closed in this function: a Workers>1 network parks pool goroutines between cycles; add `defer %s.Close()` after the error check (a no-op when serial)",
					id.Name, id.Name)
			}
			return true
		})
	})
	return fs
}

// constructsNetwork reports whether call's (first) result is a
// *network.Network. Matching on the result type rather than the callee
// name covers helpers that build and return a network: their caller
// owns the handle.
func constructsNetwork(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		t = tup.At(0).Type()
	}
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Network" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Name() == "network"
}

// returnedFrom reports whether v is handed out through any return
// statement in body.
func returnedFrom(pkg *Package, body *ast.BlockStmt, v *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			if id, ok := ast.Unparen(r).(*ast.Ident); ok && pkg.Info.Uses[id] == v {
				found = true
			}
		}
		return true
	})
	return found
}

// closedWithin reports whether body contains any v.Close() call,
// deferred or direct (defers inside nested literals count: the rule
// wants an owner, not a particular statement shape).
func closedWithin(pkg *Package, body *ast.BlockStmt, v *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Close" {
			return true
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && pkg.Info.Uses[id] == v {
			found = true
		}
		return true
	})
	return found
}

// messagePrefix extracts the leading constant string of a panic argument:
// the literal itself, the leftmost operand of a string concatenation, or
// the format argument of an fmt.Sprintf / fmt.Errorf call.
func (c *checker) messagePrefix(e ast.Expr) (string, bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.BinaryExpr:
			e = x.X
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok || len(x.Args) == 0 {
				return "", false
			}
			fn, ok := c.pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" ||
				(fn.Name() != "Sprintf" && fn.Name() != "Sprint" && fn.Name() != "Errorf") {
				return "", false
			}
			e = x.Args[0]
		default:
			tv, ok := c.pkg.Info.Types[e]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				return "", false
			}
			return constant.StringVal(tv.Value), true
		}
	}
}
