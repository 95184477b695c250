package lint

import "sort"

// This file is the analysis engine: one serial pass on the calling
// goroutine. Every analyzer is package-local, so Check builds a checker
// per package in canonical (import path) order and runs the families
// over it. Findings are sorted before they are returned, so the output
// depends on the source alone.

// check runs every analyzer family that applies to the checker's package
// and returns its findings.
func (c *checker) check() []Finding {
	var fs []Finding
	if isInternal(c.pkg.Path) {
		fs = append(fs, c.determinism()...)
		fs = append(fs, c.hygiene()...)
		fs = append(fs, c.exhaustive()...)
	}
	fs = append(fs, c.directiveFindings()...)
	// Last: every waiver-consulting family has run, so usage tracking
	// for the stale-waiver sweep is complete.
	fs = append(fs, c.waiverFindings()...)
	return fs
}

// Check loads the module rooted at root and runs every analyzer family
// over every package, returning findings sorted by file, line and rule.
// A module that does not type-check is an error, not a finding.
func Check(root string) ([]Finding, error) {
	mod, err := Load(root)
	if err != nil {
		return nil, err
	}
	var fs []Finding
	for _, pkg := range mod.Packages() {
		fs = append(fs, newChecker(mod, pkg).check()...)
	}
	sortFindings(fs)
	return fs, nil
}

// sortFindings orders findings by file, line, rule, then message.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}
