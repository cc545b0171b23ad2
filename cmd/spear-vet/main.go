// Command spear-vet runs the repository's custom static analysis (package
// internal/lint) over the given package patterns and reports file:line:col
// diagnostics for every violated invariant: no map-order iteration in the
// deterministic packages and no dropped errors. Every check guards a defect
// that go vet, the tests and the race detector miss; DESIGN.md §11 lists a
// seeded example per check.
//
// Usage:
//
//	go run ./cmd/spear-vet [-json] [-sarif file] [-check names] [packages]
//
// Patterns follow the go tool's convention ("./...", "internal/mcts",
// "internal/..."); no patterns means "./...". -check selects a
// comma-separated subset of the checks; the default is all of them.
// -sarif additionally writes the findings as a SARIF 2.1.0 log to the given
// file, for GitHub code-scanning upload. Every run ends with a one-line
// summary on stderr ("N findings across M checks, P packages").
// Exit status: 0 when clean, 1 when findings were reported, 2 when a
// package failed to load or type-check.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"spear/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit a JSON report (diagnostics, packages_loaded) on stdout")
	sarifOut := flag.String("sarif", "", "also write the findings as a SARIF 2.1.0 log to this file")
	checks := flag.String("check", "", "comma-separated subset of checks to run (default all: "+strings.Join(lint.AllChecks, ",")+")")
	list := flag.Bool("list", false, "list every check with its description and marker grammar, then exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: spear-vet [-json] [-sarif file] [-check names] [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		listChecks(os.Stdout)
		os.Exit(0)
	}
	os.Exit(run(".", flag.Args(), *checks, *jsonOut, *sarifOut, os.Stdout, os.Stderr))
}

// listChecks prints the check catalog: name, one-line description, and the
// marker grammar each check consumes.
func listChecks(w io.Writer) {
	for _, c := range lint.Checks() {
		fmt.Fprintf(w, "%-20s %s\n", c.Name, c.Desc)
		if c.Markers != "" {
			fmt.Fprintf(w, "%-20s markers: %s\n", "", c.Markers)
		}
	}
}

// report is the -json output shape: the findings plus the number of module
// packages type-checked.
type report struct {
	Diagnostics    []lint.Diagnostic `json:"diagnostics"`
	PackagesLoaded int               `json:"packages_loaded"`
}

// run resolves the patterns against base, analyzes the packages and reports
// the diagnostics, returning the process exit code: 0 clean, 1 findings,
// 2 load or type-check failure.
func run(base string, patterns []string, checks string, jsonOut bool, sarifPath string, stdout, stderr io.Writer) int {
	dirs, err := lint.ExpandPatterns(base, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "spear-vet: %v\n", err)
		return 2
	}
	var cfg lint.Config
	if checks != "" {
		for _, c := range strings.Split(checks, ",") {
			if c = strings.TrimSpace(c); c != "" {
				cfg.Checks = append(cfg.Checks, c)
			}
		}
	}
	r, err := lint.NewRunner(base, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "spear-vet: %v\n", err)
		return 2
	}
	diags, stats, err := r.Analyze(dirs)
	if err != nil {
		fmt.Fprintf(stderr, "spear-vet: %v\n", err)
		return 2
	}
	if jsonOut {
		if diags == nil {
			diags = []lint.Diagnostic{} // render [] rather than null
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		out := report{Diagnostics: diags, PackagesLoaded: stats.PackagesLoaded}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "spear-vet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if sarifPath != "" {
		f, err := os.Create(sarifPath)
		if err != nil {
			fmt.Fprintf(stderr, "spear-vet: %v\n", err)
			return 2
		}
		werr := errors.Join(lint.WriteSARIF(f, diags), f.Close())
		if werr != nil {
			fmt.Fprintf(stderr, "spear-vet: writing %s: %v\n", sarifPath, werr)
			return 2
		}
	}
	// NewRunner accepted every name in cfg.Checks; a repeated name runs once.
	checksRun := len(lint.AllChecks)
	if cfg.Checks != nil {
		selected := make(map[string]bool, len(cfg.Checks))
		for _, c := range cfg.Checks {
			selected[c] = true
		}
		checksRun = len(selected)
	}
	fmt.Fprintf(stderr, "spear-vet: %d findings across %d checks, %d packages\n", len(diags), checksRun, len(dirs))
	if len(diags) > 0 {
		return 1
	}
	return 0
}
