package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"vix/internal/sim"
)

// This file implements the write-effect analysis behind the
// parallel/sharedwrite and parallel/phase rules (shardown.go): for every
// module function it computes the set of memory locations outside the
// function's own frame that the function may write or read — receiver
// and parameter fields reached through pointers, package globals,
// variables captured by closures, and channel sends — and propagates
// those sets over the call graph, through the same direct, interface
// (CHA) and func-value dispatch resolveEdges uses.
//
// An effect is a (root, path) pair: the root names whose memory is
// touched (the receiver, the i-th parameter, a package-level variable,
// or a captured outer variable) and the path is a bounded chain of field
// selections and index steps, e.g. ".act.ems[]". Mapping an effect
// across a call edge rewrites the callee's root through the call's
// actual receiver/argument expressions; when the actual cannot be
// resolved to a root (an unresolvable local, a call result, or a
// receiver-less indirect call) the effect is dropped rather than
// over-approximated — the pass exists to prove shard code touches only
// owned state, and an effect it cannot name is an effect it also could
// not check against the ownership roots. Two deliberate consequences:
//
//   - sim.Pool's internal dispatch (`p.fn(i)`) does not fold job effects
//     into Pool.Do's callers, which is what lets parallel/phase compare
//     a job's reads against only the caller's own phase-B writes; and
//   - writes that stay behind an unresolvable local (for example a flit
//     pointer pulled out of a buffer) are invisible. The ownership model
//     in DESIGN.md section 13 spells out why that is acceptable.
//
// Frame-local writes never produce effects: writing a field of a value
// (non-pointer) receiver or a struct copy mutates the frame, not shared
// state, so a write only counts when the chain from the root to the
// written location passes through pointer, slice, map or channel memory.
// Local variables that provably alias rooted state (`s := &n.act`)
// are followed via a per-function derivation map; a local with
// conflicting or unresolvable reference sources is conservatively
// treated as unknown.

// rootKind classifies what an effect's root refers to.
type rootKind uint8

const (
	rootRecv     rootKind = iota // the enclosing method's receiver
	rootParam                    // the i-th parameter
	rootGlobal                   // a package-level variable
	rootCaptured                 // a variable captured from the enclosing function
)

// maxEffectSegs bounds effect paths so interprocedural composition over
// recursive structures terminates with a finite key space.
const maxEffectSegs = 5

// effect is one write or read a function may perform on state outside
// its own frame, with provenance for rendering the call path to the
// originating site.
type effect struct {
	kind  rootKind
	obj   types.Object // rootGlobal / rootCaptured: the variable
	param int          // rootParam: parameter index
	segs  []string     // ".field", "[]" and "<-" steps from the root

	site   token.Pos   // the direct site the effect originates from
	siteFn *types.Func // function containing the direct site
	what   string      // e.g. `assignment to n.cycle`

	// next / calleeKey walk towards the site: the effect entered this
	// function's summary through a call to next, where it is recorded
	// under calleeKey. nil next means the site is in this function.
	next      *types.Func
	calleeKey string
	dist      int
}

// key canonically identifies the effect's location within one summary.
func (e *effect) key() string {
	path := strings.Join(e.segs, "")
	switch e.kind {
	case rootRecv:
		return "recv|" + path
	case rootParam:
		return "param" + strconv.Itoa(e.param) + "|" + path
	case rootGlobal:
		return "global|" + e.obj.Pkg().Path() + "." + e.obj.Name() + "|" + path
	default:
		return "captured|" + e.obj.Name() + "@" + strconv.Itoa(int(e.obj.Pos())) + "|" + path
	}
}

// localWrite records a direct write to a plain local (no rooted alias);
// the phase rule consults these for overlap with variables a job
// literal captures.
type localWrite struct {
	v   *types.Var
	pos token.Pos
}

// funcEffects is one function's effect summary.
type funcEffects struct {
	writes map[string]*effect
	reads  map[string]*effect
	// localWrites keeps first write sites in source order (a slice, not
	// a map, so iteration is deterministic); localSeen dedupes.
	localWrites []localWrite
	localSeen   map[*types.Var]bool
}

func newFuncEffects() *funcEffects {
	return &funcEffects{
		writes:    make(map[string]*effect),
		reads:     make(map[string]*effect),
		localSeen: make(map[*types.Var]bool),
	}
}

// add inserts e into m if its key is new, reporting growth.
func (fx *funcEffects) add(m map[string]*effect, e *effect) bool {
	k := e.key()
	if _, ok := m[k]; ok {
		return false
	}
	m[k] = e
	return true
}

// derivation records that a local variable aliases rooted memory.
type derivation struct {
	kind  rootKind
	obj   types.Object
	param int
	segs  []string
}

// effectScope is the per-function context chain resolution runs in. For
// a pool-job literal, lit is set and variables declared in the enclosing
// declaration (but outside the literal) classify as rootCaptured.
type effectScope struct {
	pkg     *Package
	fn      *types.Func
	recvVar *types.Var
	params  map[*types.Var]int
	derived map[*types.Var]*derivation
	// localLits maps local variables bound to exactly one function
	// literal in this declaration; calls through them are inlined when
	// collecting a job literal's summary (the harness `fail` idiom).
	localLits map[*types.Var]*ast.FuncLit
	lit       *ast.FuncLit
}

// chainRef is the outcome of resolving an expression chain to a root.
type chainRef struct {
	kind   rootKind
	obj    types.Object
	param  int
	segs   []string
	hasRef bool // chain passes through pointer/slice/map/chan memory
	// baseObj is the plain local the chain bottomed out at when
	// resolution failed; the phase rule uses it for captured-variable
	// overlap.
	baseObj *types.Var
}

// isRefType reports whether values of t share memory when copied.
func isRefType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}

// exprIsRef reports whether e's static type is reference-like.
func (sc *effectScope) exprIsRef(e ast.Expr) bool {
	tv, ok := sc.pkg.Info.Types[e]
	return ok && isRefType(tv.Type)
}

// resolveChain unwraps a selector/index/deref chain to its root. Path
// segments come back root-outwards, capped at maxEffectSegs.
func (sc *effectScope) resolveChain(e ast.Expr) (chainRef, bool) {
	var ref chainRef
	var rev []string // collected outside-in
	cur := e
	for steps := 0; steps < 32; steps++ {
		cur = stripParens(cur)
		switch x := cur.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := sc.pkg.Info.Uses[id].(*types.PkgName); isPkg {
					// Qualified reference to another package's global.
					v, ok := sc.pkg.Info.Uses[x.Sel].(*types.Var)
					if !ok {
						return ref, false
					}
					ref.kind, ref.obj, ref.hasRef = rootGlobal, v, true
					ref.segs = capSegs(reverseSegs(rev))
					return ref, true
				}
			}
			rev = append(rev, "."+x.Sel.Name)
			if sc.exprIsRef(x.X) {
				ref.hasRef = true
			}
			cur = x.X
		case *ast.IndexExpr:
			rev = append(rev, "[]")
			if sc.exprIsRef(x.X) {
				ref.hasRef = true
			}
			cur = x.X
		case *ast.StarExpr:
			ref.hasRef = true
			cur = x.X
		case *ast.Ident:
			return sc.classifyBase(x, rev, ref)
		default:
			return ref, false
		}
	}
	return ref, false
}

// classifyBase resolves the base identifier of a chain to a root kind.
func (sc *effectScope) classifyBase(id *ast.Ident, rev []string, ref chainRef) (chainRef, bool) {
	obj, _ := sc.pkg.Info.Uses[id].(*types.Var)
	if obj == nil {
		obj, _ = sc.pkg.Info.Defs[id].(*types.Var)
	}
	if obj == nil || obj.IsField() {
		return ref, false
	}
	if d := sc.derived[obj]; d != nil {
		ref.kind, ref.obj, ref.param = d.kind, d.obj, d.param
		ref.segs = capSegs(append(append([]string(nil), d.segs...), reverseSegs(rev)...))
		ref.hasRef = true // derivations only exist for reference sources
		return ref, true
	}
	if isRefType(obj.Type()) {
		ref.hasRef = true
	}
	ref.segs = capSegs(reverseSegs(rev))
	switch {
	case sc.recvVar != nil && obj == sc.recvVar:
		ref.kind = rootRecv
	default:
		if i, ok := sc.params[obj]; ok {
			ref.kind, ref.param = rootParam, i
			break
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			ref.kind, ref.obj, ref.hasRef = rootGlobal, obj, true
			break
		}
		if sc.lit != nil && (obj.Pos() < sc.lit.Pos() || obj.Pos() > sc.lit.End()) {
			// Declared in the enclosing function: the literal captures
			// it by reference, so even scalar accesses are shared.
			ref.kind, ref.obj, ref.hasRef = rootCaptured, obj, true
			break
		}
		ref.baseObj = obj
		return ref, false
	}
	return ref, true
}

func reverseSegs(rev []string) []string {
	out := make([]string, len(rev))
	for i, s := range rev {
		out[len(rev)-1-i] = s
	}
	return out
}

func capSegs(segs []string) []string {
	if len(segs) > maxEffectSegs {
		return segs[:maxEffectSegs]
	}
	return segs
}

// callSiteInfo is one resolved call expression inside a function body.
type callSiteInfo struct {
	call *ast.CallExpr
	rc   resolvedCall
}

// writeAnalysis is the module-wide effect state, frozen after
// computeWriteEffects returns.
type writeAnalysis struct {
	mod    *Module
	g      *callGraph
	sums   map[*types.Func]*funcEffects
	scopes map[*types.Func]*effectScope
	sites  map[*types.Func][]callSiteInfo
}

// computeWriteEffects builds direct per-function summaries and runs the
// interprocedural fixpoint. Iteration follows g.funcs and sorted effect
// keys throughout, so the result is deterministic.
func computeWriteEffects(mod *Module, g *callGraph) *writeAnalysis {
	w := &writeAnalysis{
		mod:    mod,
		g:      g,
		sums:   make(map[*types.Func]*funcEffects),
		scopes: make(map[*types.Func]*effectScope),
		sites:  make(map[*types.Func][]callSiteInfo),
	}
	for _, fn := range g.funcs {
		node := g.nodes[fn]
		sc := w.declScope(node)
		fx := newFuncEffects()
		w.collectDirect(sc, node.decl.Body, fx)
		w.sums[fn] = fx
		w.scopes[fn] = sc
		w.sites[fn] = w.collectSites(node.pkg, node.decl.Body)
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range g.funcs {
			if w.flowInto(fn, w.sums[fn], w.scopes[fn], w.sites[fn]) {
				changed = true
			}
		}
	}
	return w
}

// flowInto maps every callee summary through fn's call sites into fx,
// reporting whether fx grew.
func (w *writeAnalysis) flowInto(fn *types.Func, fx *funcEffects, sc *effectScope, sites []callSiteInfo) bool {
	grew := false
	for _, cs := range sites {
		for _, callee := range cs.rc.targets {
			if callee == fn {
				continue
			}
			cfx := w.sums[callee]
			if cfx == nil {
				continue
			}
			for _, k := range sim.SortedKeys(cfx.writes) {
				if m := w.mapEffect(sc, cs, callee, cfx.writes[k]); m != nil && fx.add(fx.writes, m) {
					grew = true
				}
			}
			for _, k := range sim.SortedKeys(cfx.reads) {
				if m := w.mapEffect(sc, cs, callee, cfx.reads[k]); m != nil && fx.add(fx.reads, m) {
					grew = true
				}
			}
		}
	}
	return grew
}

// mapEffect rewrites callee effect ce into the caller's frame at call
// site cs, or returns nil when the effect cannot be named there.
func (w *writeAnalysis) mapEffect(sc *effectScope, cs callSiteInfo, callee *types.Func, ce *effect) *effect {
	out := &effect{
		site: ce.site, siteFn: ce.siteFn, what: ce.what,
		next: callee, calleeKey: ce.key(), dist: ce.dist + 1,
	}
	switch ce.kind {
	case rootGlobal, rootCaptured:
		out.kind, out.obj, out.segs = ce.kind, ce.obj, ce.segs
		return out
	case rootRecv:
		if cs.rc.recv == nil {
			return nil
		}
		ref, ok := sc.resolveChain(cs.rc.recv)
		if !ok {
			return nil
		}
		out.kind, out.obj, out.param = ref.kind, ref.obj, ref.param
		out.segs = capSegs(append(append([]string(nil), ref.segs...), ce.segs...))
		return out
	default: // rootParam
		sig, _ := callee.Type().(*types.Signature)
		if sig == nil || ce.param >= len(cs.call.Args) {
			return nil
		}
		if sig.Variadic() && ce.param >= sig.Params().Len()-1 {
			return nil
		}
		ref, ok := sc.resolveChain(cs.call.Args[ce.param])
		if !ok {
			return nil
		}
		out.kind, out.obj, out.param = ref.kind, ref.obj, ref.param
		out.segs = capSegs(append(append([]string(nil), ref.segs...), ce.segs...))
		return out
	}
}

// collectSites records every call expression under body with its
// resolved targets, in source order.
func (w *writeAnalysis) collectSites(pkg *Package, body ast.Node) []callSiteInfo {
	var out []callSiteInfo
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			rc := w.g.resolveCallSite(pkg, call)
			if len(rc.targets) > 0 {
				out = append(out, callSiteInfo{call: call, rc: rc})
			}
		}
		return true
	})
	return out
}

// declScope builds the resolution context for one declaration: receiver
// and parameter objects, the local-literal bindings, and the fixpointed
// alias derivations.
func (w *writeAnalysis) declScope(node *cgNode) *effectScope {
	sc := &effectScope{
		pkg:       node.pkg,
		fn:        node.fn,
		params:    make(map[*types.Var]int),
		derived:   make(map[*types.Var]*derivation),
		localLits: make(map[*types.Var]*ast.FuncLit),
	}
	sig := node.fn.Type().(*types.Signature)
	if r := sig.Recv(); r != nil {
		sc.recvVar = r
		// The body's uses resolve to the declared receiver object, which
		// for methods is found through the declaration's receiver field.
		if fl := node.decl.Recv; fl != nil && len(fl.List) == 1 && len(fl.List[0].Names) == 1 {
			if v, ok := node.pkg.Info.Defs[fl.List[0].Names[0]].(*types.Var); ok {
				sc.recvVar = v
			}
		}
	}
	for i := 0; i < sig.Params().Len(); i++ {
		sc.params[sig.Params().At(i)] = i
	}
	if fl := node.decl.Type.Params; fl != nil {
		i := 0
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := node.pkg.Info.Defs[name].(*types.Var); ok {
					sc.params[v] = i
				}
				i++
			}
			if len(f.Names) == 0 {
				i++
			}
		}
	}
	w.buildDerivations(sc, node.decl.Body)
	return sc
}

// derivSource is one reference-typed value assigned to a local.
type derivSource struct {
	expr    ast.Expr
	indexed bool // range-over source: derive through an extra "[]" step
}

// buildDerivations computes sc.derived and sc.localLits from the
// declaration body. A local earns a derivation when every reference-
// typed value ever assigned to it resolves to the same root and path;
// fresh allocations (make, new, composite literals and their addresses)
// and non-reference copies are neutral, and any unresolvable reference
// source (a call result, an unknown alias) poisons the variable.
func (w *writeAnalysis) buildDerivations(sc *effectScope, body ast.Node) {
	cands := make(map[*types.Var][]derivSource)
	poison := make(map[*types.Var]bool)
	var order []*types.Var
	record := func(id *ast.Ident, src derivSource, fresh bool) {
		v, ok := varOf(sc.pkg, id)
		if !ok {
			return
		}
		if _, isParam := sc.params[v]; isParam || v == sc.recvVar {
			return
		}
		if fresh {
			return
		}
		if _, seen := cands[v]; !seen && !poison[v] {
			order = append(order, v)
		}
		cands[v] = append(cands[v], src)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				// Tuple from a call: reference-typed results are unknown
				// aliases.
				for _, lhs := range st.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						if v, ok2 := varOf(sc.pkg, id); ok2 && sc.exprIsRef(id) {
							poison[v] = true
						}
					}
				}
				return true
			}
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				rhs := stripParens(st.Rhs[i])
				if lit, isLit := rhs.(*ast.FuncLit); isLit {
					if v, ok2 := varOf(sc.pkg, id); ok2 {
						if _, dup := sc.localLits[v]; dup {
							delete(sc.localLits, v)
						} else {
							sc.localLits[v] = lit
						}
					}
					continue
				}
				if !sc.exprIsRef(rhs) {
					continue
				}
				switch w.sourceKind(sc, rhs) {
				case srcFresh:
					// neutral
				case srcChain:
					record(id, derivSource{expr: rhs}, false)
				default:
					if v, ok2 := varOf(sc.pkg, id); ok2 {
						poison[v] = true
					}
				}
			}
		case *ast.RangeStmt:
			if st.Value == nil {
				return true
			}
			id, ok := st.Value.(*ast.Ident)
			if !ok || id.Name == "_" || !sc.exprIsRef(id) {
				return true
			}
			record(id, derivSource{expr: st.X, indexed: true}, false)
		}
		return true
	})
	// Fixpoint: a derivation may depend on another derived local.
	for pass := 0; pass < 8; pass++ {
		changed := false
		for _, v := range order {
			if poison[v] || sc.derived[v] != nil {
				continue
			}
			var d *derivation
			ok := true
			for _, src := range cands[v] {
				ref, resolved := sc.resolveDerivSource(src)
				if !resolved {
					ok = false
					break
				}
				cur := &derivation{kind: ref.kind, obj: ref.obj, param: ref.param, segs: ref.segs}
				if d == nil {
					d = cur
				} else if !sameDerivation(d, cur) {
					ok = false
					break
				}
			}
			if ok && d != nil {
				sc.derived[v] = d
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// varOf resolves id to its variable object.
func varOf(pkg *Package, id *ast.Ident) (*types.Var, bool) {
	if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
		return v, true
	}
	v, ok := pkg.Info.Uses[id].(*types.Var)
	return v, ok
}

type srcClass uint8

const (
	srcFresh srcClass = iota // make/new/composite literal: fresh memory
	srcChain                 // a resolvable-looking chain or its address
	srcOther                 // call result or other unknown alias
)

// sourceKind classifies a reference-typed RHS for derivation purposes.
func (w *writeAnalysis) sourceKind(sc *effectScope, rhs ast.Expr) srcClass {
	switch x := rhs.(type) {
	case *ast.UnaryExpr:
		if x.Op != token.AND {
			return srcOther
		}
		if _, isComposite := stripParens(x.X).(*ast.CompositeLit); isComposite {
			return srcFresh
		}
		return srcChain
	case *ast.CompositeLit:
		return srcFresh
	case *ast.CallExpr:
		if id, ok := stripParens(x.Fun).(*ast.Ident); ok {
			if b, ok := sc.pkg.Info.Uses[id].(*types.Builtin); ok && (b.Name() == "make" || b.Name() == "new") {
				return srcFresh
			}
		}
		return srcOther
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.Ident, *ast.StarExpr:
		return srcChain
	}
	return srcOther
}

// resolveDerivSource resolves one derivation source to its root.
func (sc *effectScope) resolveDerivSource(src derivSource) (chainRef, bool) {
	e := stripParens(src.expr)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	ref, ok := sc.resolveChain(e)
	if !ok {
		return ref, false
	}
	if src.indexed {
		ref.segs = capSegs(append(append([]string(nil), ref.segs...), "[]"))
	}
	return ref, true
}

func sameDerivation(a, b *derivation) bool {
	return a.kind == b.kind && a.obj == b.obj && a.param == b.param &&
		strings.Join(a.segs, "") == strings.Join(b.segs, "")
}

// collectDirect walks body recording fx's direct effects under scope sc.
func (w *writeAnalysis) collectDirect(sc *effectScope, body ast.Node, fx *funcEffects) {
	writeExprs := make(map[ast.Expr]bool)
	addWrite := func(target ast.Expr, extraSeg, what string) {
		writeExprs[stripParens(target)] = true
		ref, ok := sc.resolveChain(target)
		if !ok {
			if ref.baseObj != nil && !fx.localSeen[ref.baseObj] {
				fx.localSeen[ref.baseObj] = true
				fx.localWrites = append(fx.localWrites, localWrite{v: ref.baseObj, pos: target.Pos()})
			}
			return
		}
		segs := ref.segs
		if extraSeg != "" {
			segs = capSegs(append(append([]string(nil), segs...), extraSeg))
		}
		if ref.kind == rootRecv || ref.kind == rootParam {
			if !ref.hasRef {
				return // mutates a frame-local copy
			}
		}
		fx.add(fx.writes, &effect{
			kind: ref.kind, obj: ref.obj, param: ref.param, segs: segs,
			site: target.Pos(), siteFn: sc.fn,
			what: what + " " + types.ExprString(target),
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range st.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				addWrite(lhs, "", "assignment to")
			}
		case *ast.IncDecStmt:
			addWrite(st.X, "", "update of")
		case *ast.SendStmt:
			addWrite(st.Chan, "<-", "channel send on")
		case *ast.CallExpr:
			if id, ok := stripParens(st.Fun).(*ast.Ident); ok {
				if b, ok := sc.pkg.Info.Uses[id].(*types.Builtin); ok && len(st.Args) > 0 {
					switch b.Name() {
					case "copy":
						addWrite(st.Args[0], "[]", "copy into")
					case "clear":
						addWrite(st.Args[0], "", "clear of")
					case "delete":
						addWrite(st.Args[0], "[]", "delete from")
					}
				}
			}
		case *ast.SelectorExpr:
			if sel, ok := sc.pkg.Info.Selections[st]; ok && sel.Kind() == types.MethodVal {
				// Method selections are dispatch, not data paths; the
				// receiver chain is read when its subtree is visited.
				return true
			}
			w.addRead(sc, fx, st, writeExprs)
		case *ast.Ident, *ast.IndexExpr:
			w.addRead(sc, fx, n.(ast.Expr), writeExprs)
		}
		return true
	})
}

// addRead records e as a read effect when it resolves to a root and is
// not itself a write target.
func (w *writeAnalysis) addRead(sc *effectScope, fx *funcEffects, e ast.Expr, writeExprs map[ast.Expr]bool) {
	if writeExprs[e] {
		return
	}
	ref, ok := sc.resolveChain(e)
	if !ok {
		return
	}
	if ref.kind == rootRecv && len(ref.segs) == 0 {
		// A bare receiver mention is dispatch plumbing, not a data read;
		// real reads surface as longer chains or mapped callee effects.
		return
	}
	fx.add(fx.reads, &effect{
		kind: ref.kind, obj: ref.obj, param: ref.param, segs: ref.segs,
		site: e.Pos(), siteFn: sc.fn,
		what: "read of " + types.ExprString(e),
	})
}

// litScope derives a job-literal scope from the enclosing declaration's.
func litScope(base *effectScope, lit *ast.FuncLit) *effectScope {
	sc := *base
	sc.lit = lit
	return &sc
}

// litEffects computes the summary of a pool-job function literal:
// direct effects of the literal body (plus any sibling literals it
// calls, like the harness's fail closure), then one mapping pass over
// its call sites against the finished module summaries.
func (w *writeAnalysis) litEffects(fn *types.Func, lit *ast.FuncLit) *funcEffects {
	base := w.scopes[fn]
	if base == nil {
		return newFuncEffects()
	}
	sc := litScope(base, lit)
	fx := newFuncEffects()
	bodies := w.expandLitBodies(sc, lit)
	var sites []callSiteInfo
	for _, b := range bodies {
		w.collectDirect(sc, b, fx)
		sites = append(sites, w.collectSites(sc.pkg, b)...)
	}
	// Callee summaries are already fixpointed; the literal feeds nobody,
	// so one pass converges (repeated until stable for safety: a mapped
	// effect never enables further mapping here, but it is cheap).
	w.flowInto(fn, fx, sc, sites)
	return fx
}

// expandLitBodies returns lit's body plus the bodies of enclosing-
// function literals it (transitively) calls through single-assignment
// local bindings.
func (w *writeAnalysis) expandLitBodies(sc *effectScope, lit *ast.FuncLit) []ast.Node {
	seen := map[*ast.FuncLit]bool{lit: true}
	bodies := []ast.Node{lit.Body}
	for i := 0; i < len(bodies); i++ {
		ast.Inspect(bodies[i], func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := stripParens(call.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := varOf(sc.pkg, id)
			if !ok {
				return true
			}
			if sib := sc.localLits[v]; sib != nil && !seen[sib] {
				seen[sib] = true
				bodies = append(bodies, sib.Body)
			}
			return true
		})
	}
	return bodies
}

// recvDisplay renders fn's receiver type for effect display, e.g.
// "(*Network)"; empty for non-methods.
func recvDisplay(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	r := sig.Recv()
	if r == nil {
		return ""
	}
	t := r.Type()
	ptr := ""
	if p, ok := t.(*types.Pointer); ok {
		t, ptr = p.Elem(), "*"
	}
	name := "?"
	if named, ok := t.(*types.Named); ok {
		name = named.Obj().Name()
	}
	return "(" + ptr + name + ")"
}

// effectDisplay renders e as seen from job function fn, in the form the
// ownership roots match against: "(*Network).act.ems[]",
// "captured results[]", "global network.Debug", "param 0 .field".
func effectDisplay(fn *types.Func, e *effect) string {
	path := strings.Join(e.segs, "")
	switch e.kind {
	case rootRecv:
		return recvDisplay(fn) + path
	case rootParam:
		return "param " + strconv.Itoa(e.param) + path
	case rootGlobal:
		pkg := ""
		if e.obj.Pkg() != nil {
			pkg = e.obj.Pkg().Name() + "."
		}
		return "global " + pkg + e.obj.Name() + path
	default:
		return "captured " + e.obj.Name() + path
	}
}

// renderEffectPath renders the call chain from fn to e's direct site,
// e.g. "network.(*Network).runActive -> router.(*Router).Tick".
func (w *writeAnalysis) renderEffectPath(fn *types.Func, fx *funcEffects, e *effect, head string, writes bool) string {
	parts := []string{head}
	cur := e
	for cur != nil && cur.next != nil {
		parts = append(parts, funcDisplay(cur.next))
		nfx := w.sums[cur.next]
		if nfx == nil {
			break
		}
		if writes {
			cur = nfx.writes[cur.calleeKey]
		} else {
			cur = nfx.reads[cur.calleeKey]
		}
	}
	return strings.Join(parts, " -> ")
}
