package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"vix/internal/sim"
)

// This file implements the shard-ownership rules guarding the two-phase
// parallel tick (DESIGN.md sections 12 and 13). Every sim.Pool job —
// the function value or literal handed to Pool.Do — runs concurrently
// with its siblings, so the byte-identity argument requires that:
//
//   - parallel/sharedwrite: every write reachable from the job targets
//     shard-owned state. The owned roots per package are declared in
//     ShardOwnershipRoots below; anything else a job cone writes is a
//     cross-shard race candidate and is reported with the rendered call
//     path from the job to the writing statement.
//   - parallel/phase: the job (phase A) must not read state that the
//     caller mutates after the Do call returns (phase B, the serial
//     merge). The serial loop interleaves tick and merge per router, so
//     a phase-A read of phase-B state would make workers>1 diverge from
//     workers=1 even without a data race.
//
// A finding site carrying (or immediately preceded by) a
// "//vixlint:shared <justification>" comment is waived; empty
// justifications are reported under parallel/waiver and unused
// directives join the waiver/stale sweep.
//
// Job values are resolved structurally: a *ast.FuncLit argument is the
// job itself; an identifier or selector naming a declared function or a
// bound method value resolves exactly; any other func-typed value falls
// back to the address-taken functions and referenced method values with
// an identical signature (the `n.act.fn` idiom stores a method value in
// a field once so the per-cycle Do performs no allocation).

// OwnershipRoot is one state root a package's pool jobs may write, with
// the justification for why concurrent writes there cannot race or
// reorder results. Root strings match effectDisplay renderings:
// "(*Network).act", "captured results", "global pkg.Var".
type OwnershipRoot struct {
	Root string
	Why  string
}

// ShardOwnershipRoots declares, per module-relative package path, the
// write roots that are shard-owned for pool jobs whose Do call lives in
// that package. Growing this map is a reviewed act (the selfcheck test
// pins it): every entry needs a why that explains per-index confinement
// or an explicit lock.
var ShardOwnershipRoots = map[string][]OwnershipRoot{
	"internal/network": {
		{Root: "(*Network).routers", Why: "routers are partitioned by worklist entries naming distinct routers; Advance and SkipIdle touch only router-local state, and the lookahead route tickRouter writes into an emission lands in that router's own Advance scratch"},
		{Root: "(*Network).act", Why: "worklist scratch: runActive(si) writes only the per-index slots act.ems/creds/quiesced[i] of its own segment and act.delta[si]"},
		{Root: "(*Network).lastTick", Why: "runActive(i) writes only lastTick[act.work[i]], and worklist entries are distinct router indices handed out once each by Pool.Do"},
	},
	"internal/harness": {
		{Root: "captured results", Why: "results[i] is the per-job slot; Pool.Do hands out each index exactly once"},
		{Root: "captured st", Why: "store.Store methods guard entries/flights/file with the store mutex and append whole lines; store order is not part of results"},
		{Root: "captured jobErrs", Why: "guarded by mu in the fail closure; error collection order is not part of results"},
	},
}

// ownedBy reports whether rendered effect disp falls under one of the
// package's ownership roots (exact match or match at a path boundary).
func ownedBy(roots []OwnershipRoot, disp string) bool {
	for _, r := range roots {
		if disp == r.Root {
			return true
		}
		if strings.HasPrefix(disp, r.Root) {
			switch disp[len(r.Root)] {
			case '.', '[', '<':
				return true
			}
		}
	}
	return false
}

// poolJob is one resolved sim.Pool job: the Do call site, the function
// containing it, and the job body (a declared function or a literal).
type poolJob struct {
	caller    *types.Func
	callerPkg *Package
	doCall    *ast.CallExpr
	jobFn     *types.Func  // nil when the job is a literal
	lit       *ast.FuncLit // nil when the job is a declared function
}

// display names the job for findings.
func (j *poolJob) display() string {
	if j.lit != nil {
		return "func literal in " + funcDisplay(j.caller)
	}
	return funcDisplay(j.jobFn)
}

// effectOwner is the function whose receiver a rootRecv effect in the
// job summary refers to: the job itself for declared jobs, the
// enclosing caller for literals.
func (j *poolJob) effectOwner() *types.Func {
	if j.lit != nil {
		return j.caller
	}
	return j.jobFn
}

// isPoolDo reports whether call is `x.Do(n, fn)` on a sim.Pool value.
// The match is structural (type named Pool in a package named sim with
// that shape) so the corpus fixtures' miniature pools count too.
func isPoolDo(pkg *Package, call *ast.CallExpr) (types.Object, bool) {
	sel, ok := stripParens(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Do" || len(call.Args) != 2 {
		return nil, false
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil, false
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Pool" {
		return nil, false
	}
	if named.Obj().Pkg() == nil || named.Obj().Pkg().Name() != "sim" {
		return nil, false
	}
	return named.Obj(), true
}

// findPoolJobs scans every module function for Pool.Do call sites and
// resolves their job values. The pool's own package is exempt: its Do
// is the dispatch mechanism, not a job site.
func findPoolJobs(a *Analysis) []*poolJob {
	var jobs []*poolJob
	g := a.graph
	for _, fn := range g.funcs {
		node := g.nodes[fn]
		ast.Inspect(node.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			poolObj, ok := isPoolDo(node.pkg, call)
			if !ok || poolObj.Pkg().Path() == node.pkg.Path {
				return true
			}
			jobs = append(jobs, resolveJobArg(a, node, call)...)
			return true
		})
	}
	return jobs
}

// resolveJobArg resolves the func(int) argument of one Do call to the
// jobs it may run.
func resolveJobArg(a *Analysis, node *cgNode, call *ast.CallExpr) []*poolJob {
	base := poolJob{caller: node.fn, callerPkg: node.pkg, doCall: call}
	arg := stripParens(call.Args[1])
	if lit, ok := arg.(*ast.FuncLit); ok {
		j := base
		j.lit = lit
		return []*poolJob{&j}
	}
	// An identifier or selector naming a function or bound method value
	// resolves exactly.
	switch x := arg.(type) {
	case *ast.Ident:
		if fn, ok := node.pkg.Info.Uses[x].(*types.Func); ok && a.graph.nodes[fn] != nil {
			j := base
			j.jobFn = fn
			return []*poolJob{&j}
		}
	case *ast.SelectorExpr:
		if s, ok := node.pkg.Info.Selections[x]; ok && s.Kind() == types.MethodVal {
			if fn, ok := s.Obj().(*types.Func); ok && a.graph.nodes[fn] != nil {
				j := base
				j.jobFn = fn
				return []*poolJob{&j}
			}
		} else if fn, ok := node.pkg.Info.Uses[x.Sel].(*types.Func); ok && a.graph.nodes[fn] != nil {
			j := base
			j.jobFn = fn
			return []*poolJob{&j}
		}
	}
	// A stored func value: every address-taken function and referenced
	// method value with an identical signature is a candidate.
	tv, ok := node.pkg.Info.Types[arg]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*poolJob
	seen := make(map[*types.Func]bool)
	for _, fn := range a.graph.indirectTargets(sig) {
		if !seen[fn] {
			seen[fn] = true
			j := base
			j.jobFn = fn
			out = append(out, &j)
		}
	}
	for _, mv := range a.graph.methodValues() {
		if !seen[mv.fn] && types.Identical(mv.sig, sig) {
			seen[mv.fn] = true
			j := base
			j.jobFn = mv.fn
			out = append(out, &j)
		}
	}
	return out
}

// relPkgPath strips the module path prefix: "vix/internal/network" ->
// "internal/network".
func relPkgPath(mod *Module, pkgPath string) string {
	if pkgPath == mod.Path {
		return "."
	}
	return strings.TrimPrefix(pkgPath, mod.Path+"/")
}

// sharedWaivedAt consults the //vixlint:shared waiver set of the
// package containing pos.
func (a *Analysis) sharedWaivedAt(pkgPath string, pos token.Pos) bool {
	c := a.checkers[pkgPath]
	return c != nil && c.sharedWaivers.covers(c.mod, pos)
}

// analyzeShardOwnership runs both parallel rules over every resolved
// pool job, returning findings keyed by the Do-site package path. It
// runs in the single-threaded source phase (waiver usage marking
// mutates per-package checkers).
func analyzeShardOwnership(a *Analysis) map[string][]Finding {
	out := make(map[string][]Finding)
	w := a.writes
	for _, job := range findPoolJobs(a) {
		fx := w.sums[job.jobFn]
		if job.lit != nil {
			fx = w.litEffects(job.caller, job.lit)
		}
		if fx == nil {
			continue
		}
		pkgPath := job.callerPkg.Path
		roots := ShardOwnershipRoots[relPkgPath(w.mod, pkgPath)]
		out[pkgPath] = append(out[pkgPath], a.sharedWriteFindings(job, fx, roots)...)
		out[pkgPath] = append(out[pkgPath], a.phaseFindings(job, fx)...)
	}
	return out
}

// sharedWriteFindings reports every job-cone write that is neither
// shard-owned nor waived at its site.
func (a *Analysis) sharedWriteFindings(job *poolJob, fx *funcEffects, roots []OwnershipRoot) []Finding {
	var fs []Finding
	w := a.writes
	for _, k := range sim.SortedKeys(fx.writes) {
		e := fx.writes[k]
		if e.kind == rootParam {
			continue // the job's own func(int) argument carries no shared state
		}
		disp := effectDisplay(job.effectOwner(), e)
		if ownedBy(roots, disp) {
			continue
		}
		sitePkg := job.callerPkg.Path
		if e.siteFn != nil && e.siteFn.Pkg() != nil {
			sitePkg = e.siteFn.Pkg().Path()
		}
		if a.sharedWaivedAt(sitePkg, e.site) {
			continue
		}
		fs = append(fs, Finding{
			Pos:  a.mod.Fset.Position(e.site),
			Rule: "parallel/sharedwrite",
			Msg: "pool job " + job.display() + " writes " + disp + " (" + e.what +
				"), which is not a shard-owned root; path: " +
				w.renderEffectPath(job.effectOwner(), fx, e, job.display(), true) +
				" — phase-A code may only write state listed in ShardOwnershipRoots; merge cross-shard effects in phase B, or waive the site with //vixlint:shared <justification> if provably confined",
		})
	}
	return fs
}

// phaseFindings reports phase-A reads of state the caller writes after
// the Do call (the serial phase-B merge).
func (a *Analysis) phaseFindings(job *poolJob, fx *funcEffects) []Finding {
	w := a.writes
	caller, sc := job.caller, w.scopes[job.caller]
	if sc == nil {
		return nil
	}
	after := job.doCall.End()
	// Phase-B writes: the caller's direct writes positioned after the Do
	// call, plus callee write summaries mapped through calls after it.
	phase := newFuncEffects()
	declFx := newFuncEffects()
	w.collectDirect(sc, a.graph.nodes[caller].decl.Body, declFx)
	for _, k := range sim.SortedKeys(declFx.writes) {
		e := declFx.writes[k]
		if e.siteFn == caller && e.site > after {
			phase.add(phase.writes, e)
		}
	}
	for _, lw := range declFx.localWrites {
		if lw.pos > after {
			phase.localWrites = append(phase.localWrites, lw)
		}
	}
	for _, cs := range w.sites[caller] {
		if cs.call.Pos() <= after {
			continue
		}
		for _, callee := range cs.rc.targets {
			cfx := w.sums[callee]
			if cfx == nil {
				continue
			}
			for _, k := range sim.SortedKeys(cfx.writes) {
				if m := w.mapEffect(sc, cs, callee, cfx.writes[k]); m != nil {
					phase.add(phase.writes, m)
				}
			}
		}
	}
	if len(phase.writes) == 0 && len(phase.localWrites) == 0 {
		return nil
	}
	var fs []Finding
	report := func(read *effect, writeWhat string, writeSite token.Pos) {
		if a.sharedWaivedAt(job.callerPkg.Path, job.doCall.Pos()) ||
			a.sharedWaivedAt(job.callerPkg.Path, read.site) {
			return
		}
		fs = append(fs, Finding{
			Pos:  a.mod.Fset.Position(job.doCall.Pos()),
			Rule: "parallel/phase",
			Msg: "phase-A pool job " + job.display() + " reads " + effectDisplay(job.effectOwner(), read) +
				" (via " + w.renderEffectPath(job.effectOwner(), fx, read, job.display(), false) +
				") while phase B writes it after the Do call (" + writeWhat + " at " +
				relPosition(a.mod, writeSite) +
				"); a shard tick must not read state the serial merge mutates, or workers>1 diverges from the serial loop — stage the value into shard scratch before Do, or waive here with //vixlint:shared <justification>",
		})
	}
	for _, rk := range sim.SortedKeys(fx.reads) {
		read := fx.reads[rk]
		if read.kind == rootParam {
			continue
		}
		for _, wk := range sim.SortedKeys(phase.writes) {
			write := phase.writes[wk]
			if !effectRootsEqual(job.effectOwner(), read, caller, write) {
				continue
			}
			if !pathsOverlap(read.segs, write.segs) {
				continue
			}
			report(read, write.what, write.site)
			break // one finding per read
		}
		if read.kind == rootCaptured {
			for _, lw := range phase.localWrites {
				if read.obj == lw.v {
					report(read, "assignment to captured "+lw.v.Name(), lw.pos)
					break
				}
			}
		}
	}
	return fs
}

// effectRootsEqual reports whether two effects (seen from possibly
// different functions) target the same root: identical globals or
// captured variables, or receivers of identical type.
func effectRootsEqual(aFn *types.Func, ae *effect, bFn *types.Func, be *effect) bool {
	if ae.kind != be.kind {
		return false
	}
	switch ae.kind {
	case rootGlobal, rootCaptured:
		return ae.obj == be.obj
	case rootRecv:
		ar, br := recvType(aFn), recvType(bFn)
		return ar != nil && br != nil && types.Identical(ar, br)
	default:
		// rootParam roots bind to different frames per function; the
		// callers filter them out before comparing.
		return false
	}
}

// recvType returns fn's receiver type with any pointer stripped.
func recvType(fn *types.Func) types.Type {
	sig := fn.Type().(*types.Signature)
	r := sig.Recv()
	if r == nil {
		return nil
	}
	t := r.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t
}

// pathsOverlap reports whether one segment path is a boundary-aligned
// prefix of the other (or they are equal): a read of .act overlaps a
// write of .act.ems[] and vice versa.
func pathsOverlap(a, b []string) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
