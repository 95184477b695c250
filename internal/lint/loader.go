package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"vix/internal/sim"
)

// Package is one parsed, type-checked package of the module under
// analysis. Test files (*_test.go) are excluded: the lint rules govern
// library and command code, and tests legitimately print, panic, and
// iterate maps.
type Package struct {
	// Path is the package's import path, e.g. "vix/internal/alloc".
	Path string
	// Name is the package name from the package clauses.
	Name string
	// Files holds the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds the type-checker's findings for the package's files.
	Info *types.Info
}

// Module is a loaded Go module: every non-test package under the module
// root, parsed into one shared FileSet and type-checked in dependency
// order.
type Module struct {
	// Root is the absolute path of the module root (the go.mod directory).
	Root string
	// Path is the module path declared in go.mod.
	Path string
	// Fset positions every file in the module and, transitively, every
	// dependency type-checked from source.
	Fset *token.FileSet
	// Pkgs maps import path to package.
	Pkgs map[string]*Package
}

// Packages returns the module's packages sorted by import path, so that
// analysis order (and therefore finding order) is deterministic.
func (m *Module) Packages() []*Package {
	paths := sim.SortedKeys(m.Pkgs)
	pkgs := make([]*Package, len(paths))
	for i, path := range paths {
		pkgs[i] = m.Pkgs[path]
	}
	return pkgs
}

// sharedFset positions every file the process parses or type-checks, and
// sharedSource resolves non-module imports by type-checking them from
// GOROOT source (no pre-compiled export data is required). Both are
// process-global so the source importer's package cache — the expensive
// part is the standard library — is reused across Load calls.
var (
	sharedFset   = token.NewFileSet()
	sharedSource = importer.ForCompiler(sharedFset, "source", nil).(types.ImporterFrom)
)

// Load parses and type-checks every non-test package under root, which
// must be a module root (contain go.mod). Standard-library dependencies
// are type-checked from GOROOT source via go/importer's source importer,
// so no pre-compiled export data is required. A package that does not
// type-check is an error naming it: every rule reads type information,
// and the module builds before its tests run.
func Load(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod := &Module{
		Root: root,
		Path: modPath,
		Fset: sharedFset,
		Pkgs: make(map[string]*Package),
	}
	if err := mod.discover(); err != nil {
		return nil, err
	}
	ld := &loader{
		mod:      mod,
		checking: make(map[string]bool),
	}
	for _, pkg := range mod.Packages() {
		if _, err := ld.check(pkg); err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %v", pkg.Path, err)
		}
	}
	return mod, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %v (is the argument a module root?)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(strings.Trim(rest, `"`)), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// discover walks the module tree and parses every package directory.
func (m *Module) discover() error {
	return filepath.WalkDir(m.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != m.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		return m.parseDir(path)
	})
}

// parseDir parses the non-test Go files of one directory into a Package,
// if the directory contains any.
func (m *Module) parseDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var files []*ast.File
	var pkgName string
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
		pkgName = f.Name.Name
	}
	if len(files) == 0 {
		return nil
	}
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil {
		return err
	}
	importPath := m.Path
	if rel != "." {
		importPath = m.Path + "/" + filepath.ToSlash(rel)
	}
	m.Pkgs[importPath] = &Package{Path: importPath, Name: pkgName, Files: files}
	return nil
}

// loader resolves imports during type checking: module-local packages come
// from the parsed module (checked recursively, memoized), everything else
// falls back to the source importer, which type-checks the standard
// library from GOROOT source.
type loader struct {
	mod      *Module
	checking map[string]bool
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.mod.Pkgs[path]; ok {
		return l.check(pkg)
	}
	return sharedSource.ImportFrom(path, l.mod.Root, 0)
}

// check type-checks pkg (once) and returns its types.Package.
func (l *loader) check(pkg *Package) (*types.Package, error) {
	if pkg.Types != nil {
		return pkg.Types, nil
	}
	if l.checking[pkg.Path] {
		return nil, fmt.Errorf("import cycle through %s", pkg.Path)
	}
	l.checking[pkg.Path] = true
	defer delete(l.checking, pkg.Path)

	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l, FakeImportC: true}
	tpkg, err := conf.Check(pkg.Path, l.mod.Fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, err
	}
	pkg.Types = tpkg
	return tpkg, nil
}
