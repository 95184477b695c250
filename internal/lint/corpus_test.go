package lint_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vix/internal/lint"
)

var update = flag.Bool("update", false, "rewrite the corpus golden files")

// TestCorpus runs the full analysis over every seeded-violation module
// under testdata/corpus and compares the findings — rendered with
// fixture-relative paths — against the golden file next to the module
// directory. Regenerate goldens with:
//
//	go test ./internal/lint -run TestCorpus -update
//
// Each rule listed below must be exercised by at least one fixture; the
// test fails if the corpus stops covering one.
func TestCorpus(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("testdata", "corpus", "*"))
	if err != nil {
		t.Fatal(err)
	}
	seenRules := make(map[string]bool)
	fixtures := 0
	for _, dir := range dirs {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
			continue // golden files and strays
		}
		fixtures++
		dir := dir
		t.Run(filepath.Base(dir), func(t *testing.T) {
			findings, err := lint.Check(dir)
			if err != nil {
				t.Fatalf("lint.Check(%s): %v", dir, err)
			}
			abs, err := filepath.Abs(dir)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, f := range findings {
				seenRules[f.Rule] = true
				file := f.Pos.Filename
				if rel, err := filepath.Rel(abs, file); err == nil {
					file = filepath.ToSlash(rel)
				}
				fmt.Fprintf(&b, "%s:%d: %s: %s\n", file, f.Pos.Line, f.Rule, f.Msg)
			}
			golden := dir + ".golden"
			if *update {
				if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden: %v (regenerate with -update)", err)
			}
			if b.String() != string(want) {
				t.Errorf("findings diverge from %s\ngot:\n%s\nwant:\n%s", golden, b.String(), want)
			}
		})
	}
	if fixtures == 0 {
		t.Fatal("no corpus fixtures found under testdata/corpus")
	}
	if *update {
		return
	}
	for _, rule := range []string{
		"exhaustive/switch", "waiver/stale",
	} {
		if !seenRules[rule] {
			t.Errorf("no corpus fixture triggers %s; every listed rule needs a failing fixture", rule)
		}
	}
}
