package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file implements exhaustive/switch: a switch statement in an
// internal package whose tag is a module-declared enum type — a named
// type with two or more package-level constants, like alloc.Kind or
// router.FlitType — must either cover every declared constant or carry
// an explicit default clause. A silent fall-through on an unknown
// allocator kind or flit type is how a newly registered variant
// produces wrong results instead of a loud failure.
//
// Coverage is computed over constant values, not names, so aliased
// constants (two names for one value) count as covering each other. A
// switch with any non-constant case expression is skipped: coverage
// cannot be proven either way.

// enumInfo describes one module enum type: its constants by value.
type enumInfo struct {
	names  []string          // constant names, declaration-scope order
	values map[string]string // constant name -> exact value string
}

// moduleEnum returns the enum description for a named type declared in
// the module, or nil if the type does not qualify (fewer than two
// constants, non-basic underlying type, or declared outside the module).
func (c *checker) moduleEnum(t types.Type) (*types.Named, *enumInfo) {
	named, ok := t.(*types.Named)
	if !ok {
		return nil, nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return nil, nil // builtin (e.g. error)
	}
	declPkg := c.mod.Pkgs[obj.Pkg().Path()]
	if declPkg == nil {
		return nil, nil // declared outside the module
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsBoolean != 0 {
		return nil, nil
	}
	info := &enumInfo{values: make(map[string]string)}
	scope := declPkg.Types.Scope()
	for _, name := range scope.Names() { // Names() is sorted
		cn, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(cn.Type(), named) {
			continue
		}
		info.names = append(info.names, name)
		info.values[name] = cn.Val().ExactString()
	}
	if len(info.names) < 2 {
		return nil, nil
	}
	return named, info
}

// exhaustive runs exhaustive/switch over the package.
func (c *checker) exhaustive() []Finding {
	var fs []Finding
	for _, file := range c.pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			c.checkEnumSwitch(&fs, sw)
			return true
		})
	}
	return fs
}

// checkEnumSwitch verifies one tag switch.
func (c *checker) checkEnumSwitch(fs *[]Finding, sw *ast.SwitchStmt) {
	named, enum := c.moduleEnum(c.pkg.Info.TypeOf(sw.Tag))
	if named == nil {
		return
	}
	covered := make(map[string]bool) // exact value strings
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // explicit default: the switch handles unknowns
		}
		for _, e := range cc.List {
			etv, ok := c.pkg.Info.Types[e]
			if !ok || etv.Value == nil {
				return // non-constant case: coverage unprovable, skip
			}
			covered[etv.Value.ExactString()] = true
		}
	}
	var missing []string
	seen := make(map[string]bool)
	for _, name := range enum.names {
		v := enum.values[name]
		if covered[v] || seen[v] {
			continue
		}
		seen[v] = true
		missing = append(missing, name)
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	typeName := named.Obj().Name()
	if named.Obj().Pkg() != nil && named.Obj().Pkg() != c.pkg.Types {
		typeName = named.Obj().Pkg().Name() + "." + typeName
	}
	c.report(fs, sw.Pos(), "exhaustive/switch",
		"switch over %s covers %d of %d variants; missing %s — add the cases or an explicit default so unknown variants fail loudly",
		typeName, len(enum.names)-len(missing), len(enum.names), strings.Join(missing, ", "))
}
