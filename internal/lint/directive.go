package lint

import (
	"strings"

	"vix/internal/sim"
)

// This file is the single parser for vixlint's comment directives.
// Waiver collection (lint.go) goes through classifyDirective, so a typo
// like //vixlint:orderedjunk or //vixlint:orderd cannot silently parse as
// (or silently fail to be) the waiver it meant to carry. Unrecognised
// directives — the retired hot, state, alloc and shared markers
// included — are reported by rule directive/unknown instead of being
// ignored.

// directivePrefix introduces every vixlint comment directive.
const directivePrefix = "//vixlint:"

// knownDirectives is the closed set of directive names, each with what
// it waives.
var knownDirectives = map[string]string{
	"ordered": "waives determinism findings",
}

// classifyDirective parses a comment's text as a vixlint directive. ok
// is false when the comment does not start with the //vixlint: prefix
// at all. When ok is true, name is the recognised directive ("ordered")
// and rest is the trimmed argument text; a comment that
// carries the prefix but not a known, whitespace-delimited name returns
// name == "" with the offending token in rest — the caller reports it
// (rule directive/unknown) rather than accepting it silently.
func classifyDirective(text string) (name, rest string, ok bool) {
	after, ok := strings.CutPrefix(text, directivePrefix)
	if !ok {
		return "", "", false
	}
	// The name runs to the first space or tab. Anything glued onto a
	// known name (//vixlint:orderedjunk) is a distinct, unknown name.
	name = after
	if i := strings.IndexAny(after, " \t"); i >= 0 {
		name, rest = after[:i], strings.TrimSpace(after[i+1:])
	}
	if _, known := knownDirectives[name]; !known {
		return "", name, true
	}
	return name, rest, true
}

// knownDirectiveList renders the closed set for error messages, sorted.
func knownDirectiveList() string {
	var names []string
	for _, name := range sim.SortedKeys(knownDirectives) {
		names = append(names, directivePrefix+name)
	}
	return strings.Join(names, ", ")
}

// directiveFindings reports every //vixlint: comment in the package that
// does not parse as a known directive (rule directive/unknown). A typoed
// directive is worse than a missing one: the author believes a waiver
// is in force when nothing is.
func (c *checker) directiveFindings() []Finding {
	var fs []Finding
	for _, file := range c.pkg.Files {
		for _, cg := range file.Comments {
			for _, cm := range cg.List {
				name, rest, ok := classifyDirective(cm.Text)
				if !ok || name != "" {
					continue
				}
				c.report(&fs, cm.Pos(), "directive/unknown",
					"unrecognised vixlint directive %q; known directives are %s — a typo here leaves the author believing a waiver is in force when nothing is",
					directivePrefix+rest, knownDirectiveList())
			}
		}
	}
	return fs
}
