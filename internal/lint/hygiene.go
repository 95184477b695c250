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
				c.checkPrint(&fs, n)
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
func (c *checker) checkPrint(fs *[]Finding, sel *ast.SelectorExpr) {
	name := sel.Sel.Name
	switch obj := c.pkg.Info.Uses[sel.Sel].(type) {
	case *types.Func:
		if obj.Pkg() != nil && obj.Pkg().Path() == "fmt" && printFuncs[name] {
			c.report(fs, sel.Pos(), "hygiene/print",
				"fmt.%s in library code: return values or accept an io.Writer; only commands print", name)
		}
		return
	case *types.Var:
		if obj.Pkg() != nil && obj.Pkg().Path() == "os" && (name == "Stdout" || name == "Stderr") {
			c.report(fs, sel.Pos(), "hygiene/print",
				"os.%s in library code: accept an io.Writer; only commands own the process streams", name)
		}
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
