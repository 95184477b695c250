// Command vixlint runs the simulator's static-analysis pass over the
// whole module, once, on one goroutine: determinism rules (no wall
// clock, no global rand, no goroutines, no order-leaking map iteration
// in internal/), exhaustiveness of enum switches, hygiene rules (no
// printing or anonymous panics in library code, networks closed in
// cmd/), and waiver/directive hygiene. See internal/lint for the rule
// catalogue and the //vixlint:ordered waiver syntax.
//
// Usage:
//
//	vixlint [flags] [./...]
//
// The analysis is always module-wide; a "./..." argument is accepted for
// familiarity. Flags:
//
//	-root dir    module root to analyse (default: the module containing
//	             the working directory)
//	-json        emit findings as a JSON array on stdout instead of text
//	-v           print the analysis wall time to stderr
//
// Exit status: 0 when the module is clean, 1 when findings are
// reported, 2 when the analysis itself fails (unloadable module,
// unreadable root). Nothing is written under the module root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vix/internal/lint"
)

func main() {
	root := flag.String("root", "", "module root to analyse (default: the module containing the working directory)")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	verbose := flag.Bool("v", false, "print the analysis wall time to stderr")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: vixlint [-root dir] [-json] [-v] [./...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	for _, arg := range flag.Args() {
		if arg != "./..." && arg != "." {
			fmt.Fprintf(os.Stderr, "vixlint: unsupported argument %q (the analysis is always module-wide)\n", arg)
			os.Exit(2)
		}
	}

	dir := *root
	if dir == "" {
		var err error
		dir, err = findModuleRoot()
		if err != nil {
			fmt.Fprintf(os.Stderr, "vixlint: %v\n", err)
			os.Exit(2)
		}
	}
	start := time.Now()
	findings, err := lint.Check(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vixlint: %v\n", err)
		os.Exit(2)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "vixlint: %s\n", time.Since(start).Round(time.Millisecond))
	}
	if *asJSON {
		if err := writeJSON(os.Stdout, findings); err != nil {
			fmt.Fprintf(os.Stderr, "vixlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "vixlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// jsonFinding is the -json wire form of one finding.
type jsonFinding struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Column int    `json:"column,omitempty"`
	Rule   string `json:"rule"`
	Msg    string `json:"msg"`
}

// writeJSON emits the findings as one indented JSON array. An empty
// result is the empty array, not null, so consumers can always range.
func writeJSON(w *os.File, findings []lint.Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File:   f.Pos.Filename,
			Line:   f.Pos.Line,
			Column: f.Pos.Column,
			Rule:   f.Rule,
			Msg:    f.Msg,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(out)
}

// findModuleRoot walks up from the working directory to the nearest
// directory containing go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
