// Command spear-vet runs the repository's custom static analysis (package
// internal/lint) as a go vet tool and reports file:line:col diagnostics for
// every violated invariant: no map-order iteration in the deterministic
// packages and no dropped errors. Every check guards a defect that go vet's
// own analyzers, the tests and the race detector miss; DESIGN.md §11 lists
// a seeded example per check.
//
// Usage:
//
//	go build -o /tmp/spear-vet ./cmd/spear-vet
//	go vet -vettool=/tmp/spear-vet ./...
//
// The go command lists the packages, applies build constraints, compiles
// the dependencies' export data and caches clean results; it invokes the
// tool once per package with a JSON config file (vet.cfg). The tool
// type-checks the package, test files included, and reports nothing located
// in a _test.go file. Findings go to stderr, sorted, and make the tool exit
// 1. The tool has no flags.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"spear/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// vetConfig is the part of the go command's vet.cfg the tool reads.
type vetConfig struct {
	ImportPath  string
	ModulePath  string
	GoFiles     []string          // absolute paths, _test.go files included in a test variant
	ImportMap   map[string]string // import path in source -> package path
	PackageFile map[string]string // package path -> export data file
	GoVersion   string
	VetxOnly    bool   // a dependency of a vetted package: compute facts, report nothing
	VetxOutput  string // where the go command expects the facts file
}

// run answers one invocation by the go command and returns the exit code:
// 0 clean, 1 findings or failure.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: go vet -vettool=/path/to/spear-vet [packages]")
		return 1
	}
	var err error
	switch args[0] {
	case "-flags": // the flags the tool accepts, as JSON: none
		fmt.Fprintln(stdout, "[]")
		return 0
	case "-V=full": // the go command keys its cache of clean results on this line
		err = printVersion(stdout)
	default:
		var diags []lint.Diagnostic
		diags, err = vet(args[0])
		for _, d := range diags {
			fmt.Fprintln(stderr, d)
		}
		if err == nil && len(diags) > 0 {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "spear-vet: %v\n", err)
		return 1
	}
	return 0
}

// printVersion prints the version line with a build ID hashed from the
// executable itself, so a rebuilt tool never reuses cached results.
func printVersion(w io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "spear-vet version devel buildID=%x\n", sha256.Sum256(data))
	return nil
}

// vet type-checks the package vet.cfg describes and runs the checks over
// its non-test files.
func vet(cfgPath string) ([]lint.Diagnostic, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("%s: %w", cfgPath, err)
	}
	// The checks export no facts, but the go command requires the file.
	if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
		return nil, err
	}
	if cfg.VetxOnly {
		return nil, nil
	}

	fset := token.NewFileSet()
	var files, tests []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(name, "_test.go") {
			tests = append(tests, f)
		} else {
			files = append(files, f)
		}
	}
	conf := types.Config{
		GoVersion: cfg.GoVersion,
		Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if mapped, ok := cfg.ImportMap[path]; ok {
				path = mapped
			}
			file, ok := cfg.PackageFile[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(file)
		}),
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	if _, err := conf.Check(cfg.ImportPath, fset, append(files, tests...), info); err != nil {
		return nil, err
	}
	rel := strings.TrimPrefix(cfg.ImportPath, cfg.ModulePath+"/")
	return lint.Check(fset, files, info, lint.Deterministic(rel)), nil
}
