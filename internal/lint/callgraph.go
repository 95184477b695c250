package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module-wide static call graph the write-effect
// and shard-ownership passes (writeset.go, shardown.go) run over. Nodes
// are the module's declared functions and methods with bodies; edges
// come from three resolution strategies, in decreasing order of
// precision:
//
//   - direct calls: `f(...)` and `pkg.F(...)` resolve through the type
//     checker's Uses map to the callee's canonical *types.Func;
//   - concrete method calls: `x.M(...)` where x has a concrete type
//     resolve through the Selections map to the declared method;
//   - interface method calls: `i.M(...)` where i is an interface resolve
//     by class-hierarchy analysis to the M of every module type whose
//     method set implements the interface (an over-approximation: the
//     dynamic type at run time is some subset of these);
//   - indirect calls through func-typed values: `fn(...)` where fn is a
//     variable, field, or parameter resolve to every module function
//     whose address is taken somewhere in the module and whose signature
//     is identical to the call's (again an over-approximation).
//
// Function literals are folded into their enclosing declaration: a
// closure's calls become the enclosing function's edges, which is the
// conservative direction.
//
// Method values (`x.M` referenced without calling) are not treated as
// address-taken: resolving them requires binding a receiver, and no
// simulation code passes bound methods across packages. The limitation
// is documented in DESIGN.md section 11. The shard-ownership pass
// (shardown.go) keeps its own method-value collection for resolving
// sim.Pool job values — that set never feeds general graph edges.

// cgNode is one function or method declaration in the call graph.
type cgNode struct {
	fn   *types.Func
	pkg  *Package
	decl *ast.FuncDecl
	// callees are the resolved outgoing edges, deduplicated and sorted
	// into deterministic order (declaration position).
	callees []*types.Func
}

// callGraph is the module-wide static call graph.
type callGraph struct {
	mod *Module
	// funcs lists every node's *types.Func in deterministic order
	// (packages sorted by path, files by name, declarations in source
	// order). All iteration happens over this slice, never over the map.
	funcs []*types.Func
	nodes map[*types.Func]*cgNode
	// taken and resolver are retained after construction so later passes
	// (write effects, shard ownership) resolve call sites with exactly
	// the same strategy resolveEdges used.
	taken    []*types.Func
	resolver *ifaceResolver
	// mvRefs is the lazy method-value collection behind methodValues.
	mvRefs      []methodValueRef
	mvCollected bool
}

// buildCallGraph constructs the graph for every package of mod.
func buildCallGraph(mod *Module) *callGraph {
	g := &callGraph{mod: mod, nodes: make(map[*types.Func]*cgNode)}
	for _, pkg := range mod.Packages() {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue // type checking failed for this declaration
				}
				g.funcs = append(g.funcs, fn)
				g.nodes[fn] = &cgNode{fn: fn, pkg: pkg, decl: fd}
			}
		}
	}
	g.taken = g.addressTaken()
	g.resolver = &ifaceResolver{graph: g, cache: make(map[*types.Func][]*types.Func)}
	for _, fn := range g.funcs {
		g.resolveEdges(g.nodes[fn])
	}
	return g
}

// addressTaken returns the module functions whose address is taken — any
// reference to a declared function outside the callee position of a call
// expression, in a function body or a package-level variable initialiser.
// These are the possible targets of indirect calls through func values.
func (g *callGraph) addressTaken() []*types.Func {
	seen := make(map[*types.Func]bool)
	var out []*types.Func
	for _, pkg := range g.mod.Packages() {
		for _, file := range pkg.Files {
			// Positions of expressions in callee position: references
			// there are calls, not value uses.
			callees := make(map[ast.Expr]bool)
			ast.Inspect(file, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					callees[stripParens(call.Fun)] = true
				}
				return true
			})
			ast.Inspect(file, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := pkg.Info.Uses[id].(*types.Func)
				if !ok || fn.Type().(*types.Signature).Recv() != nil {
					return true // methods: see the package comment
				}
				if callees[ast.Expr(id)] {
					return true
				}
				// pkg.F in callee position appears as a SelectorExpr in
				// callees; the inner ident must not count as taken.
				if g.nodes[fn] != nil && !g.selIsCallee(callees, file, id) {
					if !seen[fn] {
						seen[fn] = true
						out = append(out, fn)
					}
				}
				return true
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// selIsCallee reports whether ident id is the Sel of a qualified
// reference (pkg.F or x.M) that itself sits in callee position.
func (g *callGraph) selIsCallee(callees map[ast.Expr]bool, file *ast.File, id *ast.Ident) bool {
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel != id {
			return true
		}
		if callees[ast.Expr(sel)] {
			found = true
		}
		return false
	})
	return found
}

// stripParens removes any parenthesis wrapping from e.
func stripParens(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// resolvedCall is the outcome of resolving one call expression: the
// module-internal targets it may reach, the receiver expression when the
// call is a method call on a value (nil otherwise), and whether the
// targets came from an indirect (func-value or interface) dispatch —
// indirect targets have no usable receiver/argument binding for effect
// mapping, only for graph edges.
type resolvedCall struct {
	targets  []*types.Func
	recv     ast.Expr
	indirect bool
}

// resolveCallSite resolves one call expression in pkg with the same
// strategy resolveEdges documents at the top of this file. It is shared
// by edge construction and the write-effect pass so both see identical
// dispatch.
func (g *callGraph) resolveCallSite(pkg *Package, call *ast.CallExpr) resolvedCall {
	var rc resolvedCall
	add := func(fn *types.Func) {
		if fn != nil && g.nodes[fn] != nil {
			rc.targets = append(rc.targets, fn)
		}
	}
	fun := stripParens(call.Fun)
	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := pkg.Info.Uses[fun].(type) {
		case *types.Func:
			add(obj)
		case *types.Var:
			rc.indirect = true
			for _, fn := range g.indirectTargets(obj.Type()) {
				add(fn)
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			// Method call or func-typed field call on a value.
			switch sel.Kind() {
			case types.MethodVal:
				m := sel.Obj().(*types.Func)
				if types.IsInterface(sel.Recv()) {
					rc.recv = fun.X
					for _, impl := range g.resolver.implementations(sel.Recv(), m) {
						add(impl)
					}
				} else {
					rc.recv = fun.X
					add(m)
				}
			case types.FieldVal:
				rc.indirect = true
				if v, ok := sel.Obj().(*types.Var); ok {
					for _, fn := range g.indirectTargets(v.Type()) {
						add(fn)
					}
				}
			}
		} else {
			// Qualified reference: pkg.F or pkg.Var.
			switch obj := pkg.Info.Uses[fun.Sel].(type) {
			case *types.Func:
				add(obj)
			case *types.Var:
				rc.indirect = true
				for _, fn := range g.indirectTargets(obj.Type()) {
					add(fn)
				}
			}
		}
	default:
		// Call of a call result or other computed func value.
		rc.indirect = true
		if tv, ok := pkg.Info.Types[fun]; ok && tv.Type != nil {
			for _, fn := range g.indirectTargets(tv.Type) {
				add(fn)
			}
		}
	}
	return rc
}

// resolveEdges walks node's body (including function literals) and
// records every resolvable callee.
func (g *callGraph) resolveEdges(node *cgNode) {
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		rc := g.resolveCallSite(node.pkg, call)
		node.callees = append(node.callees, rc.targets...)
		return true
	})
	node.callees = dedupeFuncs(node.callees)
}

// indirectTargets returns the possible targets of an indirect call
// through a value of func type typ: every address-taken module function
// with an identical signature.
func (g *callGraph) indirectTargets(typ types.Type) []*types.Func {
	sig, ok := typ.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, fn := range g.taken {
		if types.Identical(fn.Type(), sig) {
			out = append(out, fn)
		}
	}
	return out
}

// dedupeFuncs removes duplicates and sorts by declaration position for
// deterministic edge order.
func dedupeFuncs(fns []*types.Func) []*types.Func {
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })
	out := fns[:0]
	var prev *types.Func
	for _, fn := range fns {
		if fn != prev {
			out = append(out, fn)
		}
		prev = fn
	}
	return out
}

// ifaceResolver performs class-hierarchy analysis: given an interface
// method, it returns the corresponding concrete methods of every module
// type implementing the interface. Results are memoised per interface
// method. It is built and exercised single-threaded, before the parallel
// per-package phase reads the finished graph.
type ifaceResolver struct {
	graph *callGraph
	// namedTypes caches the module's named (non-interface) types in
	// deterministic order, collected lazily on first use.
	namedTypes []*types.Named
	collected  bool
	cache      map[*types.Func][]*types.Func
}

// implementations resolves interface method m of interface type recv.
func (r *ifaceResolver) implementations(recv types.Type, m *types.Func) []*types.Func {
	if impls, ok := r.cache[m]; ok {
		return impls
	}
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var impls []*types.Func
	for _, named := range r.moduleNamedTypes() {
		var recvType types.Type = named
		if !types.Implements(recvType, iface) {
			recvType = types.NewPointer(named)
			if !types.Implements(recvType, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(recvType, true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok && r.graph.nodes[fn] != nil {
			impls = append(impls, fn)
		}
	}
	impls = dedupeFuncs(impls)
	r.cache[m] = impls
	return impls
}

// moduleNamedTypes collects every named non-interface type declared in
// the module, in deterministic (package path, scope name) order.
func (r *ifaceResolver) moduleNamedTypes() []*types.Named {
	if r.collected {
		return r.namedTypes
	}
	r.collected = true
	for _, pkg := range r.graph.mod.Packages() {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			r.namedTypes = append(r.namedTypes, named)
		}
	}
	return r.namedTypes
}

// funcDisplay renders fn for path traces: "pkg.Name" for functions,
// "pkg.(*Recv).Name" / "pkg.Recv.Name" for methods.
func funcDisplay(fn *types.Func) string {
	name := fn.Name()
	sig := fn.Type().(*types.Signature)
	pkgName := ""
	if fn.Pkg() != nil {
		pkgName = fn.Pkg().Name() + "."
	}
	recv := sig.Recv()
	if recv == nil {
		return pkgName + name
	}
	t := recv.Type()
	ptr := ""
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
		ptr = "*"
	}
	recvName := "?"
	if named, ok := t.(*types.Named); ok {
		recvName = named.Obj().Name()
	}
	if ptr != "" {
		return pkgName + "(" + ptr + recvName + ")." + name
	}
	return pkgName + recvName + "." + name
}

// methodValueRef is one method referenced as a bound method value
// (`x.M` outside callee position) somewhere in the module, with the
// receiver-stripped signature the value carries.
type methodValueRef struct {
	fn  *types.Func
	sig *types.Signature
}

// methodValues lazily collects every bound-method-value reference in the
// module. The general call graph deliberately excludes these (see the
// package comment); the shard-ownership pass uses them only to resolve
// the job value handed to sim.Pool.Do, where the zero-alloc idiom stores
// a method value in a field once and passes it every cycle.
func (g *callGraph) methodValues() []methodValueRef {
	if g.mvCollected {
		return g.mvRefs
	}
	g.mvCollected = true
	for _, pkg := range g.mod.Packages() {
		for _, file := range pkg.Files {
			callees := make(map[ast.Expr]bool)
			ast.Inspect(file, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					callees[stripParens(call.Fun)] = true
				}
				return true
			})
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || callees[ast.Expr(sel)] {
					return true
				}
				s, ok := pkg.Info.Selections[sel]
				if !ok || s.Kind() != types.MethodVal {
					return true
				}
				tv, ok := pkg.Info.Types[sel]
				if !ok || tv.Type == nil {
					return true
				}
				sig, ok := tv.Type.Underlying().(*types.Signature)
				if !ok {
					return true
				}
				if fn, ok := s.Obj().(*types.Func); ok && g.nodes[fn] != nil {
					g.mvRefs = append(g.mvRefs, methodValueRef{fn: fn, sig: sig})
				}
				return true
			})
		}
	}
	sort.Slice(g.mvRefs, func(i, j int) bool { return g.mvRefs[i].fn.Pos() < g.mvRefs[j].fn.Pos() })
	return g.mvRefs
}

// lookupFunc finds the node for the function or method named name (plain
// "F" or "Recv.M") in the package with import path pkgPath.
func (g *callGraph) lookupFunc(pkgPath, name string) *cgNode {
	recv, base, isMethod := strings.Cut(name, ".")
	if !isMethod {
		base, recv = name, ""
	}
	for _, fn := range g.funcs {
		node := g.nodes[fn]
		if node.pkg.Path != pkgPath || fn.Name() != base {
			continue
		}
		sig := fn.Type().(*types.Signature)
		if recv == "" {
			if sig.Recv() == nil {
				return node
			}
			continue
		}
		if sig.Recv() == nil {
			continue
		}
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Name() == recv {
			return node
		}
	}
	return nil
}
