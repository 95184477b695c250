package vix_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docFiles are the documents whose citations TestDocsCiteWhatExists checks.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

var (
	funcDecl   = regexp.MustCompile(`(?m)^func (?:\([^)]*\) )?(\w+)`)
	testCite   = regexp.MustCompile(`\b((?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*)(\*?)`)
	inlineCode = regexp.MustCompile("`([^`]+)`")
	pathToken  = regexp.MustCompile(`(?:^|[\s(=])(?:\./)?((?:internal|cmd|bench|examples)(?:/[\w.*-]*)*)`)
	// A Go selector after a package path (internal/sim.Pool) names a
	// declaration in that directory, not a file.
	selector = regexp.MustCompile(`\.[A-Z].*$`)
	heading  = regexp.MustCompile(`(?m)^#+\s+(?:\d+\.\s+)?(.+?)\s*$`)
	// A section is cited by its quoted title after the file name.
	sectionCite = regexp.MustCompile(`DESIGN(?:\.md)?,?(?:\s|//|#)*"([A-Z][^"\n]*)"`)
	// A section number goes stale when the document is reorganised.
	numberCite = regexp.MustCompile(`DESIGN(?:\.md)?,? *(?:§|[Ss]ection) *[0-9]`)
	// Type.Member in a code span (sim.Pool.Do names Pool.Do).
	memberCite = regexp.MustCompile(`\b([A-Z]\w*)\.([A-Za-z_]\w*)\b`)
)

// TestDocsCiteWhatExists keeps the documents honest about the tree: every
// test, fuzz target or benchmark they name exists (a trailing * names a
// prefix), every internal/, cmd/, bench/ or examples/ path they put in
// code spans exists, every Type.Member in a code span names a field (by
// Go or JSON name) or method of some module type called Type, and every
// DESIGN.md section a Go comment, the Makefile, CI or another document
// cites is a heading of DESIGN.md, cited by title rather than number.
func TestDocsCiteWhatExists(t *testing.T) {
	var funcs []string
	members := map[string]map[string]bool{} // type name -> its fields and methods
	fset := token.NewFileSet()
	var sources []string // files that may cite DESIGN.md sections
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".") && name != ".github") {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(path, ".go"):
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range funcDecl.FindAllStringSubmatch(string(src), -1) {
				funcs = append(funcs, m[1])
			}
			f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			addMembers(members, f)
			sources = append(sources, path)
		case path == "Makefile", strings.HasPrefix(path, filepath.Join(".github", "workflows")):
			sources = append(sources, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(name string, prefix bool) bool {
		for _, f := range funcs {
			if f == name || prefix && strings.HasPrefix(f, name) {
				return true
			}
		}
		return false
	}

	for _, doc := range docFiles {
		text := readFile(t, doc)
		for _, m := range testCite.FindAllStringSubmatch(text, -1) {
			if !exists(m[1], m[2] == "*") {
				t.Errorf("%s names %s%s, which no function in the module matches", doc, m[1], m[2])
			}
		}
		for _, span := range codeSpans(text) {
			for _, m := range memberCite.FindAllStringSubmatch(span, -1) {
				if _, err := os.Stat(m[0]); err == nil {
					continue // a file name, such as EXPERIMENTS.md
				}
				if !members[m[1]][m[2]] {
					t.Errorf("%s cites `%s`, but no type %s in the module has a field or method %s", doc, m[0], m[1], m[2])
				}
			}
			for _, m := range pathToken.FindAllStringSubmatch(span, -1) {
				path := strings.TrimRight(strings.TrimSuffix(selector.ReplaceAllString(m[1], ""), "/..."), ".")
				if matches, _ := filepath.Glob(path); len(matches) == 0 {
					t.Errorf("%s cites `%s`, which does not exist", doc, m[1])
				}
			}
		}
	}

	titles := map[string]bool{}
	for _, m := range heading.FindAllStringSubmatch(readFile(t, "DESIGN.md"), -1) {
		titles[m[1]] = true
	}
	for _, src := range append(sources, docFiles...) {
		text := readFile(t, src)
		for _, m := range sectionCite.FindAllStringSubmatch(text, -1) {
			if !titles[m[1]] {
				t.Errorf("%s cites DESIGN.md section %q, which is not a heading there", src, m[1])
			}
		}
		if loc := numberCite.FindString(text); loc != "" {
			t.Errorf("%s cites a DESIGN.md section by number (%q); cite its title", src, loc)
		}
	}
}

// TestDocsStayWithinTheirBudgets bounds the two documents a reader starts
// from: DESIGN.md describes the tree as it is and README.md how to use
// it, so past these sizes they are restating the history that CHANGES.md
// and perf/trajectory.jsonl keep.
func TestDocsStayWithinTheirBudgets(t *testing.T) {
	for _, c := range []struct {
		doc string
		max int
	}{
		{"DESIGN.md", 25 << 10},
		{"README.md", 12 << 10},
	} {
		if n := len(readFile(t, c.doc)); n > c.max {
			t.Errorf("%s is %d bytes, over its budget of %d", c.doc, n, c.max)
		}
	}
}

// addMembers records, per type declared in f, its fields (embedded ones
// by type name, tagged ones by JSON name too), its interface methods and
// the methods f declares on it.
func addMembers(members map[string]map[string]bool, f *ast.File) {
	add := func(typ, member string) {
		if members[typ] == nil {
			members[typ] = map[string]bool{}
		}
		members[typ][member] = true
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil && len(n.Recv.List) == 1 {
				if typ := typeName(n.Recv.List[0].Type); typ != "" {
					add(typ, n.Name.Name)
				}
			}
		case *ast.TypeSpec:
			var fields *ast.FieldList
			switch t := n.Type.(type) {
			case *ast.StructType:
				fields = t.Fields
			case *ast.InterfaceType:
				fields = t.Methods
			default:
				return true
			}
			for _, fld := range fields.List {
				for _, name := range fld.Names {
					add(n.Name.Name, name.Name)
				}
				if len(fld.Names) == 0 {
					add(n.Name.Name, typeName(fld.Type))
				}
				if fld.Tag != nil {
					tag, _ := strconv.Unquote(fld.Tag.Value)
					if json, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ","); json != "" {
						add(n.Name.Name, json)
					}
				}
			}
		}
		return true
	})
}

// typeName returns the name of a receiver or embedded type expression:
// T, *T, T[P] or pkg.T give T.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	}
	return ""
}

// codeSpans returns the contents of the fenced blocks and inline code spans
// of a Markdown text.
func codeSpans(text string) []string {
	var spans []string
	var prose, fenced strings.Builder
	inFence := false
	for _, line := range strings.SplitAfter(text, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			if inFence {
				spans = append(spans, fenced.String())
				fenced.Reset()
			}
			inFence = !inFence
		case inFence:
			fenced.WriteString(line)
		default:
			prose.WriteString(line)
		}
	}
	for _, m := range inlineCode.FindAllStringSubmatch(prose.String(), -1) {
		spans = append(spans, m[1])
	}
	return spans
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
