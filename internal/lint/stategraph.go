package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"vix/internal/sim"
)

// This file implements the state-graph analysis behind `vixlint -state`.
// Byte-exact checkpoint/restore (ROADMAP item 2) is only safe if the
// snapshot codec enumerates every mutable field of the simulation —
// a missed field means a resumed run silently diverges from an
// uninterrupted one. Hand-maintained field lists rot as the state
// surface grows, so the inventory is a compiler-checked contract:
//
//  1. Starting from the roots in StateGraphRoots (network.Network, the
//     NI injection queues, router.Router, every alloc.Allocator
//     implementation, stats.Collector, the sim.RNG stream), the
//     analysis walks the reachable struct-field graph through
//     pointers, slices, arrays, maps, channels and embedded types.
//  2. Every reachable field must appear in the committed manifest at
//     .vixlint/stategraph.golden as exactly one of:
//       persistent — must be serialized in a snapshot (VC buffers,
//                    in-flight flits, RNG stream position, stats);
//       scratch    — reconstructible: verified written-before-read
//                    inside every Step/Tick/Allocate call cone, so a
//                    restore can leave it zero;
//       config     — immutable after construction: verified never
//                    written inside the simulation cone (the analysis
//                    is instance-insensitive, so construction-time
//                    writes — a CLI filling in a Config literal — are
//                    indistinguishable from mutating the live value
//                    and deliberately allowed; mid-run mutation is the
//                    hazard the rule polices).
//  3. The verdicts are enforced by four rule families:
//       state/unclassified — a reachable field missing from the
//           manifest (the gate that keeps the inventory exhaustive);
//       state/scratch-read — a scratch field whose first access in
//           some Step/Tick/Allocate cone is a read: it secretly
//           carries cross-cycle state, reported with the rendered
//           call path from entry to the reading statement;
//       state/frozen-write — a config field written inside the
//           simulation cone;
//       state/stale — a manifest entry naming no reachable field.
//
// The first-access analysis reuses the call graph: each function gets
// a source-ordered event list (field reads, field writes, call sites),
// and call sites merge the callee's first-access summary with
// read-beats-write pessimism across dispatch targets. Writes are
// recognised through assignments (including `*p = T{...}`, which
// writes every field of T), compound assignment and ++/-- (which read
// first), element writes `x.f[i] = v`, `copy`/`clear` builtins, and
// the `x.f = x.f[:0]` / `append(x.f[:0], ...)` reset idiom (which does
// not read). Writes through a local alias of a field
// (`p := c.perSrcFlits; p[i] = 0`) are not attributed to the field —
// the documented approximation; such fields classify as persistent.
//
// A finding site carrying a "//vixlint:state <justification>" comment
// is waived (rule state/waiver polices empty justifications, the
// waiver/stale sweep polices unused ones). Like the escape gate, a
// warm-skip state file keys the whole verdict on the module content
// hash, the manifest bytes and the root table, so `make lint-bench`'s
// warm invocation analyzes nothing — and editing the manifest (or any
// struct field) re-runs the analysis. `vixlint -state -update-state`
// regenerates the manifest: existing classifications are preserved,
// stale entries dropped, and new fields are classified automatically
// (config when never written outside construction, scratch when
// provably rebuilt before every cone read and never read outside the
// simulation cone, persistent otherwise — the conservative default,
// since snapshotting too much is slow but snapshotting too little is
// wrong).

// stateDirective waives a state/scratch-read or state/frozen-write
// finding on its line (or the line below), with a justification.
const stateDirective = "//vixlint:state"

// stateGoldenName is the committed manifest under .vixlint/.
const stateGoldenName = "stategraph.golden"

// stateStateName is the warm-skip state file under the cache dir.
const stateStateName = "state-state.json"

// stateCacheVersion invalidates the warm-skip state when the analysis
// changes behaviour.
const stateCacheVersion = "vixlint-state-1"

// StateRoot declares one root of the simulation state graph. Roots are
// matched structurally — by package name, not import path — so the
// corpus fixtures exercise the analysis with miniature network/router
// packages of their own.
type StateRoot struct {
	// Pkg is the package name declaring the root.
	Pkg string
	// Type names a root struct type directly. Empty when Iface is set.
	Type string
	// Iface names an interface; every module struct implementing it is
	// a root (the allocators, whose receivers carry rotating priority
	// and scratch state).
	Iface string
	// Why documents what simulation state the root anchors.
	Why string
}

// StateGraphRoots pins where the state walk starts. The selfcheck test
// asserts this table stays in sync with the simulator's architecture;
// extend it when a new subsystem owns mutable simulation state.
var StateGraphRoots = []StateRoot{
	{Pkg: "network", Type: "Network", Why: "top-level simulation state: cycle counter, routers, queues, activity bitsets, flit pool"},
	{Pkg: "network", Type: "ni", Why: "per-node network interface: injection deque, backlog, per-node RNG"},
	{Pkg: "router", Type: "Router", Why: "per-router state: input VCs, output ports, occupancy, allocator scratch"},
	{Pkg: "stats", Type: "Collector", Why: "measurement state: counters and latency records that must survive a restore"},
	{Pkg: "sim", Type: "RNG", Why: "the deterministic random stream; its position is simulation state"},
	{Pkg: "alloc", Iface: "Allocator", Why: "every allocator implementation: rotating priorities persist, request matrices are scratch"},
}

// stateClass is one manifest classification.
type stateClass string

const (
	classPersistent stateClass = "persistent"
	classScratch    stateClass = "scratch"
	classConfig     stateClass = "config"
)

// validStateClass reports whether s is one of the three classes.
func validStateClass(s stateClass) bool {
	return s == classPersistent || s == classScratch || s == classConfig
}

// StateOptions configures CheckState.
type StateOptions struct {
	// Update regenerates the manifest from the current tree instead of
	// diffing against it.
	Update bool
	// Cache enables the warm-skip state keyed on module content,
	// manifest bytes and the root table.
	Cache bool
	// CacheDir overrides the state location; default <root>/.vixlint.
	CacheDir string
	// ManifestPath overrides the manifest location; default
	// <root>/.vixlint/stategraph.golden. Tests use it to diff the real
	// tree against an edited manifest without touching the checkout.
	ManifestPath string
}

// StateStats reports how much work a CheckState call performed.
type StateStats struct {
	// Packages is the number of module packages discovered.
	Packages int
	// Analyzed is 1 when the graph walk and first-access analysis ran,
	// 0 on a warm-skip hit.
	Analyzed int
	// Cached reports a warm-skip hit.
	Cached bool
	// Roots is the number of resolved root struct types.
	Roots int
	// Fields is the number of reachable mutable fields.
	Fields int
	// Entries is the number of Step/Tick/Allocate cone entry points.
	Entries int
}

// CheckState runs the state-graph analysis over the module at root.
func CheckState(root string, opts StateOptions) ([]Finding, StateStats, error) {
	var stats StateStats
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, stats, err
	}
	cacheDir := opts.CacheDir
	if cacheDir == "" {
		cacheDir = filepath.Join(absRoot, cacheDirName)
	}
	manifestPath := opts.ManifestPath
	if manifestPath == "" {
		manifestPath = filepath.Join(absRoot, cacheDirName, stateGoldenName)
	}
	manifestBytes, manifestErr := os.ReadFile(manifestPath)

	idx, err := indexModule(absRoot)
	if err != nil {
		return nil, stats, err
	}
	stats.Packages = len(idx.packages)
	stateKey := stateGraphKey(idx, manifestBytes)
	if opts.Cache && !opts.Update {
		if st, ok := loadStateState(cacheDir, stateKey); ok {
			stats.Cached = true
			return st.resolve(absRoot), stats, nil
		}
	}
	stats.Analyzed = 1

	if manifestErr != nil && !opts.Update {
		fs := []Finding{{
			Pos:  token.Position{Filename: manifestPath, Line: 1},
			Rule: "state/golden",
			Msg:  "no committed state manifest; run `vixlint -state -update-state`, audit the classifications, and commit " + filepath.Join(cacheDirName, stateGoldenName),
		}}
		return fs, stats, nil
	}

	mod, err := Load(absRoot)
	if err != nil {
		return nil, stats, err
	}
	graph := buildCallGraph(mod)
	a := newStateAnalysis(mod, graph)
	stats.Roots = len(a.roots)
	stats.Fields = len(a.fields.order)
	stats.Entries = len(a.entries)

	var manifest *stateManifest
	if opts.Update {
		var prev *stateManifest
		if manifestErr == nil {
			// Best effort: a malformed old manifest is regenerated from
			// scratch rather than blocking the update.
			prev, _ = parseStateManifest(manifestPath, manifestBytes)
		}
		manifest = a.regenerate(prev)
		if err := writeStateManifest(manifestPath, manifest); err != nil {
			return nil, stats, err
		}
		manifestBytes, _ = os.ReadFile(manifestPath)
		stateKey = stateGraphKey(idx, manifestBytes)
	} else {
		manifest, err = parseStateManifest(manifestPath, manifestBytes)
		if err != nil {
			return nil, stats, err
		}
	}

	fs := a.check(manifest)
	sortFindings(fs)
	if opts.Cache {
		storeStateState(cacheDir, absRoot, stateKey, fs)
	}
	return fs, stats, nil
}

// stateRootsFingerprint hashes the root table so editing it invalidates
// the warm-skip state, mirroring ownershipFingerprint.
func stateRootsFingerprint() string {
	h := sha256.New()
	for _, r := range StateGraphRoots {
		fmt.Fprintf(h, "%s %s %s %s\n", r.Pkg, r.Type, r.Iface, r.Why)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// stateGraphKey chains everything the verdict depends on: the analysis
// version, the root table, the manifest bytes, and every package's
// content-hash key. The manifest fingerprint joining the chain is what
// makes a manifest edit re-run the analysis on an otherwise warm tree.
func stateGraphKey(idx *moduleIndex, manifest []byte) string {
	h := sha256.New()
	io.WriteString(h, stateCacheVersion+"\n")
	io.WriteString(h, stateRootsFingerprint()+"\n")
	msum := sha256.Sum256(manifest)
	io.WriteString(h, hex.EncodeToString(msum[:])+"\n")
	for _, p := range idx.packages {
		fmt.Fprintf(h, "%s %s\n", p.path, p.key)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// --- reachable field graph ---

// stateField is one reachable mutable field.
type stateField struct {
	obj *types.Var
	// key is the manifest key, "pkgname.Type.Field" (full import path
	// substituted on the rare package-name collision).
	key string
	// path is an example rendered access path from a root, e.g.
	// "network.Network.routers[].in[][].buf[]".
	path string
}

// fieldGraph is the walked set of reachable fields and struct types.
type fieldGraph struct {
	modPkgs map[*types.Package]bool
	fields  map[*types.Var]*stateField
	byKey   map[string]*stateField
	order   []*stateField
	structs map[*types.Named]bool
	// owner maps each field to the struct type declaring it, and edges
	// records struct-to-struct reachability through field types; both
	// scope the per-entry checks (a Step entry checks everything the
	// Network reaches, an Allocate entry only the allocator's own
	// state — not the RequestSet the router hands it).
	owner map[*types.Var]*types.Named
	edges map[*types.Named][]*types.Named
}

// walkStruct registers every field of named and recurses into field
// types. path is the example access path that reached the struct.
func (fg *fieldGraph) walkStruct(named *types.Named, path string) {
	if fg.structs[named] {
		return
	}
	fg.structs[named] = true
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	tn := named.Obj()
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if fg.fields[f] == nil {
			key := tn.Pkg().Name() + "." + tn.Name() + "." + f.Name()
			if dup, ok := fg.byKey[key]; ok && dup.obj != f {
				key = tn.Pkg().Path() + "." + tn.Name() + "." + f.Name()
			}
			sf := &stateField{obj: f, key: key, path: path + "." + f.Name()}
			fg.fields[f] = sf
			fg.byKey[key] = sf
			fg.order = append(fg.order, sf)
			fg.owner[f] = named
		}
		fg.walkType(f.Type(), path+"."+f.Name(), named)
	}
}

// reaches returns the set of structs reachable from `from` through the
// field graph, including itself.
func (fg *fieldGraph) reaches(from *types.Named) map[*types.Named]bool {
	out := map[*types.Named]bool{from: true}
	queue := []*types.Named{from}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, next := range fg.edges[n] {
			if !out[next] {
				out[next] = true
				queue = append(queue, next)
			}
		}
	}
	return out
}

// walkType unwraps containers and recurses into module-declared named
// structs, recording a reachability edge from the declaring struct.
// Interfaces are terminal: the field holding the interface is
// classified, and interface implementations that carry simulation
// state (the allocators) are roots of their own.
func (fg *fieldGraph) walkType(t types.Type, path string, from *types.Named) {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Slice:
			t, path = u.Elem(), path+"[]"
			continue
		case *types.Array:
			t, path = u.Elem(), path+"[]"
			continue
		case *types.Map:
			fg.walkType(u.Key(), path+"[key]", from)
			t, path = u.Elem(), path+"[]"
			continue
		case *types.Chan:
			t, path = u.Elem(), path+"<-"
			continue
		}
		break
	}
	if named, ok := t.(*types.Named); ok && fg.modPkgs[named.Obj().Pkg()] {
		if _, isStruct := named.Underlying().(*types.Struct); isStruct {
			if from != nil {
				fg.edges[from] = append(fg.edges[from], named)
			}
			fg.walkStruct(named, path)
		}
	}
}

// resolveStateRoots matches StateGraphRoots against the module. Missing
// roots are fine — corpus fixtures model only a slice of the simulator.
func resolveStateRoots(mod *Module, g *callGraph) []*types.Named {
	var roots []*types.Named
	seen := make(map[*types.Named]bool)
	add := func(n *types.Named) {
		if n != nil && !seen[n] {
			seen[n] = true
			roots = append(roots, n)
		}
	}
	for _, r := range StateGraphRoots {
		for _, pkg := range mod.Packages() {
			if pkg.Name != r.Pkg || pkg.Types == nil {
				continue
			}
			if r.Type != "" {
				if tn, ok := pkg.Types.Scope().Lookup(r.Type).(*types.TypeName); ok {
					if named, ok := tn.Type().(*types.Named); ok {
						add(named)
					}
				}
				continue
			}
			tn, ok := pkg.Types.Scope().Lookup(r.Iface).(*types.TypeName)
			if !ok {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for _, named := range g.resolver.moduleNamedTypes() {
				if !isInternal(named.Obj().Pkg().Path()) {
					// Example binaries may implement Allocator too, but
					// they are not snapshot targets.
					continue
				}
				if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
					add(named)
				}
			}
		}
	}
	return roots
}

// --- manifest ---

// stateManifest is the parsed classification manifest.
type stateManifest struct {
	path   string
	class  map[string]stateClass
	note   map[string]string
	lineOf map[string]int
	keys   []string // declaration order, for deterministic iteration
}

// parseStateManifest reads the manifest format: '#' comments and blank
// lines, then "class<TAB>field<TAB>note" entries (the note may be
// empty). Malformed lines are hard errors, not findings: a gate that
// half-reads its own baseline proves nothing.
func parseStateManifest(path string, data []byte) (*stateManifest, error) {
	m := &stateManifest{
		path:   path,
		class:  make(map[string]stateClass),
		note:   make(map[string]string),
		lineOf: make(map[string]int),
	}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.SplitN(line, "\t", 3)
		if len(fields) < 2 {
			return nil, fmt.Errorf("lint: %s:%d: malformed manifest line %q (want class<TAB>field<TAB>note)", path, i+1, line)
		}
		class, key := stateClass(fields[0]), fields[1]
		if !validStateClass(class) {
			return nil, fmt.Errorf("lint: %s:%d: unknown state class %q (want persistent, scratch or config)", path, i+1, fields[0])
		}
		if _, dup := m.class[key]; dup {
			return nil, fmt.Errorf("lint: %s:%d: duplicate manifest entry for %s", path, i+1, key)
		}
		m.class[key] = class
		if len(fields) == 3 {
			m.note[key] = fields[2]
		}
		m.lineOf[key] = i + 1
		m.keys = append(m.keys, key)
	}
	return m, nil
}

// writeStateManifest renders the manifest grouped by class, each group
// sorted by field key.
func writeStateManifest(path string, m *stateManifest) error {
	var b strings.Builder
	b.WriteString("# vixlint state-graph manifest: every mutable field reachable from\n")
	b.WriteString("# StateGraphRoots, classified for checkpoint/restore (DESIGN.md sec. 16).\n")
	b.WriteString("#   persistent — must be serialized in a snapshot (includes the RNG stream position)\n")
	b.WriteString("#   scratch    — reconstructible; verified written-before-read in every Step/Tick/Allocate cone\n")
	b.WriteString("#   config     — immutable; verified never written inside the simulation cone\n")
	b.WriteString("# Each line is class<TAB>field<TAB>note. Audit any diff, then regenerate\n")
	b.WriteString("# with `vixlint -state -update-state`.\n")
	byClass := make(map[stateClass][]string)
	for _, key := range sim.SortedKeys(m.class) {
		byClass[m.class[key]] = append(byClass[m.class[key]], key)
	}
	for _, class := range []stateClass{classPersistent, classScratch, classConfig} {
		keys := byClass[class]
		if len(keys) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n# --- %s (%d) ---\n", class, len(keys))
		for _, key := range keys {
			fmt.Fprintf(&b, "%s\t%s\t%s\n", class, key, m.note[key])
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// --- first-access analysis ---

// stateEvent is one entry in a function's source-ordered event list:
// either a field access or a call site with its dispatch targets.
type stateEvent struct {
	field   *types.Var // nil for call events
	write   bool
	pos     token.Pos
	callees []*types.Func
}

// firstAccess records how a field is first touched within a function's
// forward cone: directly (via == nil) or through a callee.
type firstAccess struct {
	read bool
	pos  token.Pos
	via  *types.Func
}

// accessSite is one direct field access, for the frozen-write and
// outside-read checks.
type accessSite struct {
	fn  *types.Func
	pos token.Pos
}

// stateAnalysis holds the per-module analysis state.
type stateAnalysis struct {
	mod    *Module
	graph  *callGraph
	fields *fieldGraph
	roots  []*types.Named

	events     map[*types.Func][]stateEvent
	writeSites map[*types.Var][]accessSite
	readSites  map[*types.Var][]accessSite

	entries []*types.Func // Step/Tick/Allocate methods on reachable structs
	simCone map[*types.Func]bool
	// reach memoises, per entry receiver type, which structs that
	// entry's checks cover.
	reach map[*types.Named]map[*types.Named]bool

	first    map[*types.Func]map[*types.Var]*firstAccess
	visiting map[*types.Func]bool

	waivers *waiverSet
}

// newStateAnalysis walks the field graph, collects per-function event
// lists and computes the simulation and constructor cones.
func newStateAnalysis(mod *Module, graph *callGraph) *stateAnalysis {
	a := &stateAnalysis{
		mod:   mod,
		graph: graph,
		fields: &fieldGraph{
			modPkgs: make(map[*types.Package]bool),
			fields:  make(map[*types.Var]*stateField),
			byKey:   make(map[string]*stateField),
			structs: make(map[*types.Named]bool),
			owner:   make(map[*types.Var]*types.Named),
			edges:   make(map[*types.Named][]*types.Named),
		},
		events:     make(map[*types.Func][]stateEvent),
		writeSites: make(map[*types.Var][]accessSite),
		readSites:  make(map[*types.Var][]accessSite),
		reach:      make(map[*types.Named]map[*types.Named]bool),
		first:      make(map[*types.Func]map[*types.Var]*firstAccess),
		visiting:   make(map[*types.Func]bool),
		waivers:    collectStateWaivers(mod),
	}
	for _, pkg := range mod.Packages() {
		if pkg.Types != nil {
			a.fields.modPkgs[pkg.Types] = true
		}
	}
	a.roots = resolveStateRoots(mod, graph)
	for _, root := range a.roots {
		tn := root.Obj()
		a.fields.walkStruct(root, tn.Pkg().Name()+"."+tn.Name())
	}
	for _, fn := range graph.funcs {
		node := graph.nodes[fn]
		a.events[fn] = a.collectEvents(node)
		for _, ev := range a.events[fn] {
			if ev.field == nil {
				continue
			}
			site := accessSite{fn: fn, pos: ev.pos}
			if ev.write {
				a.writeSites[ev.field] = append(a.writeSites[ev.field], site)
			} else {
				a.readSites[ev.field] = append(a.readSites[ev.field], site)
			}
		}
	}
	a.entries = a.coneEntries()
	a.simCone = a.eventCone(a.entries)
	return a
}

// eventCone expands entry points into their forward call cone using the
// event lists' call targets — unlike hotCone's raw graph edges, these
// include bound-method-value dispatch, so the pool jobs handed to
// sim.Pool.Do are inside the simulation cone.
func (a *stateAnalysis) eventCone(entries []*types.Func) map[*types.Func]bool {
	cone := make(map[*types.Func]bool)
	queue := append([]*types.Func(nil), entries...)
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if cone[fn] {
			continue
		}
		cone[fn] = true
		for _, ev := range a.events[fn] {
			queue = append(queue, ev.callees...)
		}
	}
	return cone
}

// covers reports whether entry's checks extend to sf: the field's
// owning struct must be reachable from the entry's receiver type. The
// Step entry covers everything the Network owns; an Allocate entry
// covers only the allocator's own state, not the RequestSet the router
// hands it — from the router's cone that set is provably rebuilt first.
func (a *stateAnalysis) covers(entry *types.Func, sf *stateField) bool {
	recv := recvNamed(entry)
	if recv == nil {
		return false
	}
	r, ok := a.reach[recv]
	if !ok {
		r = a.fields.reaches(recv)
		a.reach[recv] = r
	}
	return r[a.fields.owner[sf.obj]]
}

// collectStateWaivers merges //vixlint:state waivers across every
// package: the state pass is module-wide, and file names are unique, so
// one merged set tracks justification and usage for all of them.
func collectStateWaivers(mod *Module) *waiverSet {
	merged := &waiverSet{
		directive: stateDirective,
		lines:     make(map[string]map[int]string),
		used:      make(map[string]map[int]bool),
	}
	for _, pkg := range mod.Packages() {
		ws := collectWaivers(mod, pkg, stateDirective)
		for _, file := range sim.SortedKeys(ws.lines) {
			merged.lines[file] = ws.lines[file]
			merged.used[file] = ws.used[file]
		}
	}
	return merged
}

// coneEntries finds the simulation entry points: methods named Step,
// Tick or Allocate whose receiver is a reachable state struct.
func (a *stateAnalysis) coneEntries() []*types.Func {
	var entries []*types.Func
	for _, fn := range a.graph.funcs {
		switch fn.Name() {
		case "Step", "Tick", "Allocate":
		default:
			continue
		}
		if named := recvNamed(fn); named != nil && a.fields.structs[named] {
			entries = append(entries, fn)
		}
	}
	return entries
}

// recvNamed returns the named type of fn's receiver (pointer stripped),
// or nil for plain functions.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// firstMap computes fn's first-access summary: for every reachable
// field its cone touches, whether the first touch in source order is a
// read or a write. Call sites merge callee summaries with read-beats-
// write pessimism across dispatch targets; recursion is cut by
// treating an in-progress callee as access-free.
func (a *stateAnalysis) firstMap(fn *types.Func) map[*types.Var]*firstAccess {
	if m, ok := a.first[fn]; ok {
		return m
	}
	if a.visiting[fn] {
		return nil
	}
	a.visiting[fn] = true
	m := make(map[*types.Var]*firstAccess)
	for _, ev := range a.events[fn] {
		if ev.field != nil {
			if _, seen := m[ev.field]; !seen {
				m[ev.field] = &firstAccess{read: !ev.write, pos: ev.pos}
			}
			continue
		}
		for _, callee := range ev.callees {
			cm := a.firstMap(callee)
			if len(cm) == 0 {
				continue
			}
			for _, sf := range a.fields.order {
				v := sf.obj
				fa, touched := cm[v]
				if !touched {
					continue
				}
				cur, seen := m[v]
				if !seen {
					m[v] = &firstAccess{read: fa.read, pos: ev.pos, via: callee}
				} else if cur.via != nil && cur.pos == ev.pos && fa.read && !cur.read {
					// Another target of the same call site reads the
					// field first: across dispatch targets the read
					// wins — any target may execute.
					m[v] = &firstAccess{read: true, pos: ev.pos, via: callee}
				}
			}
		}
	}
	a.visiting[fn] = false
	a.first[fn] = m
	return m
}

// chase follows a firstAccess via-chain to the direct access site,
// returning the rendered call path (entry excluded) and the site.
func (a *stateAnalysis) chase(fn *types.Func, v *types.Var) ([]string, token.Pos) {
	var path []string
	fa := a.first[fn][v]
	for depth := 0; fa != nil && fa.via != nil && depth < 64; depth++ {
		path = append(path, funcDisplay(fa.via))
		next := a.first[fa.via][v]
		if next == nil {
			break
		}
		fa = next
	}
	if fa == nil {
		return path, token.NoPos
	}
	return path, fa.pos
}

// --- checks ---

// check runs the four rule families against the manifest.
func (a *stateAnalysis) check(m *stateManifest) []Finding {
	var fs []Finding
	pos := func(p token.Pos) token.Position { return a.mod.Fset.Position(p) }

	// state/unclassified + field-key reverse index.
	classOf := make(map[*types.Var]stateClass)
	for _, sf := range a.fields.order {
		class, ok := m.class[sf.key]
		if !ok {
			inferred, _ := a.inferClass(sf)
			fs = append(fs, Finding{
				Pos:  pos(sf.obj.Pos()),
				Rule: "state/unclassified",
				Msg: fmt.Sprintf("field %s (reachable as %s) is simulation state but missing from %s; classify it as persistent, scratch or config — `vixlint -state -update-state` infers %s, audit it before committing",
					sf.key, sf.path, filepath.Join(cacheDirName, stateGoldenName), inferred),
			})
			continue
		}
		classOf[sf.obj] = class
	}

	// state/stale: manifest entries naming no reachable field.
	for _, key := range m.keys {
		if _, ok := a.fields.byKey[key]; !ok {
			fs = append(fs, Finding{
				Pos:  token.Position{Filename: m.path, Line: m.lineOf[key]},
				Rule: "state/stale",
				Msg:  fmt.Sprintf("manifest entry %s names no reachable field (deleted, renamed, or unreachable from StateGraphRoots); remove it with -update-state so the manifest cannot rot", key),
			})
		}
	}

	// state/scratch-read: for every cone entry, a scratch field whose
	// first access is a read carries cross-cycle state.
	seenScratch := make(map[string]bool)
	for _, entry := range a.sortedEntries() {
		em := a.firstMap(entry)
		for _, sf := range a.fields.order {
			if classOf[sf.obj] != classScratch || !a.covers(entry, sf) {
				continue
			}
			fa := em[sf.obj]
			if fa == nil || !fa.read {
				continue
			}
			callPath, site := a.chase(entry, sf.obj)
			if site == token.NoPos {
				site = fa.pos
			}
			dedup := sf.key + "\t" + pos(site).Filename + fmt.Sprint(pos(site).Line)
			if seenScratch[dedup] {
				continue
			}
			seenScratch[dedup] = true
			if a.waivers.covers(a.mod, site) {
				continue
			}
			trace := funcDisplay(entry)
			if len(callPath) > 0 {
				trace += " -> " + strings.Join(callPath, " -> ")
			}
			fs = append(fs, Finding{
				Pos:  pos(site),
				Rule: "state/scratch-read",
				Msg: fmt.Sprintf("scratch field %s is read before any write in the %s cone; path: %s — a scratch field consumed before it is rebuilt carries cross-cycle state: fix the read order, or reclassify it persistent in the manifest",
					sf.key, funcDisplay(entry), trace),
			})
		}
	}

	// state/frozen-write: config fields written inside the simulation
	// cone. The analysis is instance-insensitive — it cannot tell a CLI
	// building a fresh Config value from a mutation of the live one —
	// so construction-time writes outside the cone are allowed, and the
	// mid-run mutation hazard is what the rule polices.
	for _, sf := range a.fields.order {
		if classOf[sf.obj] != classConfig {
			continue
		}
		for _, site := range a.writeSites[sf.obj] {
			if !a.simCone[site.fn] {
				continue
			}
			if a.waivers.covers(a.mod, site.pos) {
				continue
			}
			fs = append(fs, Finding{
				Pos:  pos(site.pos),
				Rule: "state/frozen-write",
				Msg: fmt.Sprintf("config field %s is written in %s, inside the simulation cone — config state is immutable once the network is constructed; move the write out of the Step/Tick/Allocate path, or reclassify the field persistent in the manifest",
					sf.key, funcDisplay(site.fn)),
			})
		}
	}

	fs = append(fs, a.waiverSweep()...)
	return fs
}

// waiverSweep reports empty-justification and unused state waivers.
// The state pass polices its own directive: the main analysis never
// consults //vixlint:state, so its stale sweep would misfire here.
func (a *stateAnalysis) waiverSweep() []Finding {
	var fs []Finding
	for _, file := range sim.SortedKeys(a.waivers.lines) {
		for _, line := range sim.SortedKeys(a.waivers.lines[file]) {
			if a.waivers.lines[file][line] == "" {
				fs = append(fs, Finding{
					Pos:  token.Position{Filename: file, Line: line},
					Rule: "state/waiver",
					Msg:  "vixlint:state waiver needs a justification explaining why the access does not break the field's classification",
				})
			}
			if !a.waivers.used[file][line] {
				fs = append(fs, Finding{
					Pos:  token.Position{Filename: file, Line: line},
					Rule: "waiver/stale",
					Msg:  fmt.Sprintf("%s waiver suppresses nothing; remove it (stale waivers hide the audit trail)", stateDirective),
				})
			}
		}
	}
	return fs
}

// sortedEntries returns the cone entries in deterministic display
// order.
func (a *stateAnalysis) sortedEntries() []*types.Func {
	entries := append([]*types.Func(nil), a.entries...)
	sort.Slice(entries, func(i, j int) bool { return funcDisplay(entries[i]) < funcDisplay(entries[j]) })
	return entries
}

// inferClass classifies a field from the analysis alone: config when
// never written inside the simulation cone, scratch when provably
// rebuilt before every cone read and never read outside the simulation
// cone, persistent otherwise. Persistent is the conservative default —
// a snapshot that carries too much is slow, one that carries too
// little is wrong.
func (a *stateAnalysis) inferClass(sf *stateField) (stateClass, string) {
	mutated := false
	for _, site := range a.writeSites[sf.obj] {
		if a.simCone[site.fn] {
			mutated = true
			break
		}
	}
	if !mutated {
		return classConfig, "auto: never written inside the simulation cone"
	}
	for _, entry := range a.sortedEntries() {
		if !a.covers(entry, sf) {
			continue
		}
		if fa := a.firstMap(entry)[sf.obj]; fa != nil && fa.read {
			return classPersistent, "auto: read before write in the " + funcDisplay(entry) + " cone"
		}
	}
	// A read outside the simulation cone (Measure, Snapshot, a CLI)
	// consumes the accumulated value: the field must survive a restore
	// even if every cone rebuilds it first.
	for _, site := range a.readSites[sf.obj] {
		if !a.simCone[site.fn] {
			return classPersistent, "auto: read outside the simulation cone (" + funcDisplay(site.fn) + ")"
		}
	}
	return classScratch, "auto: rebuilt before any read in every Step/Tick/Allocate cone"
}

// regenerate builds the manifest for -update-state: classifications of
// still-reachable entries are preserved (they are audited decisions),
// stale entries are dropped, new fields are auto-classified.
func (a *stateAnalysis) regenerate(prev *stateManifest) *stateManifest {
	m := &stateManifest{
		class:  make(map[string]stateClass),
		note:   make(map[string]string),
		lineOf: make(map[string]int),
	}
	for _, sf := range a.fields.order {
		if prev != nil {
			if class, ok := prev.class[sf.key]; ok {
				m.class[sf.key] = class
				m.note[sf.key] = prev.note[sf.key]
				m.keys = append(m.keys, sf.key)
				continue
			}
		}
		class, note := a.inferClass(sf)
		m.class[sf.key] = class
		m.note[sf.key] = note
		m.keys = append(m.keys, sf.key)
	}
	return m
}

// --- event collection ---

// collectEvents walks one declaration body and returns its
// source-ordered event list. The walk mirrors evaluation order where it
// matters for first-access verdicts: assignment right-hand sides before
// left-hand writes, call arguments before the call event, `x.f[:0]`
// slice resets and value-less `for range` clears do not read.
func (a *stateAnalysis) collectEvents(node *cgNode) []stateEvent {
	pkg := node.pkg
	info := pkg.Info
	var evs []stateEvent

	fieldOf := func(e ast.Expr) *types.Var {
		sel, ok := stripParens(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		s, ok := info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return nil
		}
		v, ok := s.Obj().(*types.Var)
		if !ok || a.fields.fields[v] == nil {
			return nil
		}
		return v
	}
	emit := func(v *types.Var, write bool, pos token.Pos) {
		if v != nil {
			evs = append(evs, stateEvent{field: v, write: write, pos: pos})
		}
	}

	var walkExpr func(e ast.Expr)
	var walkStmt func(s ast.Stmt)

	// isZeroReset recognises x.f[:0] (and x.f[0:0]): the reset idiom
	// reads only the slice header's capacity, not prior contents.
	isZeroReset := func(sl *ast.SliceExpr) bool {
		zero := func(e ast.Expr) bool {
			if e == nil {
				return true
			}
			lit, ok := stripParens(e).(*ast.BasicLit)
			return ok && lit.Kind == token.INT && lit.Value == "0"
		}
		return sl.High != nil && zero(sl.High) && zero(sl.Low) && sl.Max == nil
	}

	// emitTarget walks an assignment target: chain reads below the
	// final field, a read of the field itself for compound targets,
	// then the write.
	var emitTarget func(e ast.Expr, compound bool)
	emitTarget = func(e ast.Expr, compound bool) {
		switch t := stripParens(e).(type) {
		case *ast.SelectorExpr:
			if v := fieldOf(t); v != nil {
				walkExpr(t.X)
				if compound {
					emit(v, false, t.Sel.Pos())
				}
				emit(v, true, t.Sel.Pos())
				return
			}
			walkExpr(t.X)
		case *ast.IndexExpr:
			// x.f[i] = v writes f's element: the index chain and the
			// path below f are reads, f itself is written.
			walkExpr(t.Index)
			if v := fieldOf(t.X); v != nil {
				if sel, ok := stripParens(t.X).(*ast.SelectorExpr); ok {
					walkExpr(sel.X)
				}
				if compound {
					emit(v, false, t.Pos())
				}
				emit(v, true, t.Pos())
				return
			}
			emitTarget(t.X, compound)
		case *ast.StarExpr:
			// *p = v writes every field of the pointed-to struct.
			walkExpr(t.X)
			if tv, ok := info.Types[t.X]; ok && tv.Type != nil {
				if ptr, ok := tv.Type.Underlying().(*types.Pointer); ok {
					if named, ok := ptr.Elem().(*types.Named); ok {
						if st, ok := named.Underlying().(*types.Struct); ok && a.fields.structs[named] {
							for i := 0; i < st.NumFields(); i++ {
								f := st.Field(i)
								if a.fields.fields[f] != nil {
									if compound {
										emit(f, false, t.Pos())
									}
									emit(f, true, t.Pos())
								}
							}
						}
					}
				}
			}
		default:
			// Local identifiers and blank targets carry no field state.
		}
	}

	walkExprs := func(es []ast.Expr) {
		for _, e := range es {
			walkExpr(e)
		}
	}

	walkExpr = func(e ast.Expr) {
		if e == nil {
			return
		}
		switch t := e.(type) {
		case *ast.ParenExpr:
			walkExpr(t.X)
		case *ast.SelectorExpr:
			walkExpr(t.X)
			emit(fieldOf(t), false, t.Sel.Pos())
		case *ast.SliceExpr:
			if isZeroReset(t) {
				if sel, ok := stripParens(t.X).(*ast.SelectorExpr); ok && fieldOf(sel) != nil {
					walkExpr(sel.X)
				} else {
					walkExpr(t.X)
				}
			} else {
				walkExpr(t.X)
			}
			walkExpr(t.Low)
			walkExpr(t.High)
			walkExpr(t.Max)
		case *ast.IndexExpr:
			walkExpr(t.X)
			walkExpr(t.Index)
		case *ast.IndexListExpr:
			walkExpr(t.X)
			walkExprs(t.Indices)
		case *ast.StarExpr:
			walkExpr(t.X)
		case *ast.UnaryExpr:
			walkExpr(t.X)
		case *ast.BinaryExpr:
			walkExpr(t.X)
			walkExpr(t.Y)
		case *ast.KeyValueExpr:
			walkExpr(t.Key)
			walkExpr(t.Value)
		case *ast.CompositeLit:
			walkExprs(t.Elts)
		case *ast.TypeAssertExpr:
			walkExpr(t.X)
		case *ast.FuncLit:
			// Literals fold into the enclosing declaration, matching
			// the call graph's treatment.
			walkStmt(t.Body)
		case *ast.CallExpr:
			fun := stripParens(t.Fun)
			if tv, ok := info.Types[fun]; ok {
				if tv.IsType() { // conversion
					walkExprs(t.Args)
					return
				}
				if tv.IsBuiltin() {
					name := ""
					switch f := fun.(type) {
					case *ast.Ident:
						name = f.Name
					case *ast.SelectorExpr:
						name = f.Sel.Name // unsafe.X
					}
					switch name {
					case "copy":
						if len(t.Args) == 2 {
							walkExpr(t.Args[1])
							emitTarget(t.Args[0], false)
							return
						}
					case "clear":
						if len(t.Args) == 1 {
							emitTarget(t.Args[0], false)
							return
						}
					case "delete":
						if len(t.Args) == 2 {
							walkExpr(t.Args[1])
							emitTarget(t.Args[0], false)
							return
						}
					}
					walkExprs(t.Args)
					return
				}
			}
			walkExpr(t.Fun)
			walkExprs(t.Args)
			rc := a.graph.resolveCallSite(pkg, t)
			targets := rc.targets
			if rc.indirect {
				targets = append(targets, a.methodValueTargets(pkg, fun)...)
			}
			if len(targets) > 0 {
				evs = append(evs, stateEvent{pos: t.Rparen, callees: dedupeFuncs(targets)})
			}
		case *ast.Ellipsis:
			walkExpr(t.Elt)
		}
	}

	walkStmtList := func(ss []ast.Stmt) {
		for _, s := range ss {
			walkStmt(s)
		}
	}

	walkStmt = func(s ast.Stmt) {
		if s == nil {
			return
		}
		switch t := s.(type) {
		case *ast.BlockStmt:
			walkStmtList(t.List)
		case *ast.ExprStmt:
			walkExpr(t.X)
		case *ast.AssignStmt:
			walkExprs(t.Rhs)
			if t.Tok == token.DEFINE {
				return // := targets are fresh locals
			}
			compound := t.Tok != token.ASSIGN
			for _, lhs := range t.Lhs {
				emitTarget(lhs, compound)
			}
		case *ast.IncDecStmt:
			emitTarget(t.X, true)
		case *ast.SendStmt:
			walkExpr(t.Value)
			emitTarget(t.Chan, false)
		case *ast.IfStmt:
			walkStmt(t.Init)
			walkExpr(t.Cond)
			walkStmt(t.Body)
			walkStmt(t.Else)
		case *ast.ForStmt:
			walkStmt(t.Init)
			walkExpr(t.Cond)
			walkStmt(t.Body)
			walkStmt(t.Post)
		case *ast.RangeStmt:
			// `for i := range x.f { x.f[i] = zero }` is the idiomatic
			// clear: a value-less range reads only the length, so it is
			// not a field read — the element writes in the body decide.
			base := stripParens(t.X)
			if sel, ok := base.(*ast.SelectorExpr); ok && t.Value == nil && fieldOf(sel) != nil {
				walkExpr(sel.X)
			} else {
				walkExpr(t.X)
			}
			if t.Tok == token.ASSIGN {
				emitTarget(t.Key, false)
				emitTarget(t.Value, false)
			}
			walkStmt(t.Body)
		case *ast.SwitchStmt:
			walkStmt(t.Init)
			walkExpr(t.Tag)
			walkStmt(t.Body)
		case *ast.TypeSwitchStmt:
			walkStmt(t.Init)
			walkStmt(t.Assign)
			walkStmt(t.Body)
		case *ast.SelectStmt:
			walkStmt(t.Body)
		case *ast.CaseClause:
			walkExprs(t.List)
			walkStmtList(t.Body)
		case *ast.CommClause:
			walkStmt(t.Comm)
			walkStmtList(t.Body)
		case *ast.ReturnStmt:
			walkExprs(t.Results)
		case *ast.DeferStmt:
			walkExpr(t.Call)
		case *ast.GoStmt:
			walkExpr(t.Call)
		case *ast.DeclStmt:
			if gd, ok := t.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						walkExprs(vs.Values)
					}
				}
			}
		case *ast.LabeledStmt:
			walkStmt(t.Stmt)
		}
	}

	walkStmt(node.decl.Body)
	return evs
}

// methodValueTargets resolves an indirect call through a func-typed
// value to the bound method values with an identical signature — the
// zero-alloc idiom stores n.runActive in a field once and hands it to
// sim.Pool.Do every cycle, and the state analysis must see through that
// dispatch or every worklist-scratch write would look unreachable.
func (a *stateAnalysis) methodValueTargets(pkg *Package, fun ast.Expr) []*types.Func {
	tv, ok := pkg.Info.Types[fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, mv := range a.graph.methodValues() {
		if types.Identical(mv.sig, sig) {
			out = append(out, mv.fn)
		}
	}
	return out
}

// --- warm-skip state ---

// stateState is the stored warm-skip state for the state gate.
type stateState struct {
	Key      string          `json:"key"`
	Findings []cachedFinding `json:"findings"`
}

// resolve converts stored findings back to absolute positions.
func (st *stateState) resolve(root string) []Finding {
	e := cacheEntry{Findings: st.Findings}
	return e.resolve(root)
}

// loadStateState returns the stored state if its key matches.
func loadStateState(dir, key string) (*stateState, bool) {
	data, err := os.ReadFile(filepath.Join(dir, stateStateName))
	if err != nil {
		return nil, false
	}
	var st stateState
	if json.Unmarshal(data, &st) != nil || st.Key != key {
		return nil, false
	}
	return &st, true
}

// storeStateState writes the warm-skip state; failures are ignored so a
// read-only checkout cannot fail the gate.
func storeStateState(dir, root, key string, fs []Finding) {
	st := stateState{Key: key, Findings: []cachedFinding{}}
	for _, f := range fs {
		name := f.Pos.Filename
		if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = filepath.ToSlash(rel)
		}
		st.Findings = append(st.Findings, cachedFinding{
			File:   name,
			Line:   f.Pos.Line,
			Column: f.Pos.Column,
			Rule:   f.Rule,
			Msg:    f.Msg,
		})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	data, err := json.MarshalIndent(&st, "", "\t")
	if err != nil {
		return
	}
	os.WriteFile(filepath.Join(dir, stateStateName), data, 0o644)
}
