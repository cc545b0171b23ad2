// Package lint holds spear-vet's two checks over one type-checked package.
// Every check guards a defect class that go vet, the tests and the race
// detector miss (TestMutationRows seeds such defects into product code):
//
//   - determinism: packages on the reproducibility-critical path (MCTS, the
//     network, the simulator, ...) do not let map iteration order decide
//     anything.
//   - errflow: no error value is dropped.
//
// A rule stays only while no test catches its defect: the allocation-free
// fast paths are held by the AllocsPerRun gates, global math/rand draws and
// wall-clock reads by the output corpus, cancellation by the facade's
// cancellation property test, and metric-series uniqueness by obs's bundle
// test (DESIGN.md §11).
//
// The package loads nothing. cmd/spear-vet runs under go vet -vettool: the
// go command lists, filters and compiles the packages, and the tool
// type-checks each one against the compiler's export data and hands it to
// Check. Both checks look at one package at a time.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// Diagnostic is one finding, addressable as file:line:col.
type Diagnostic struct {
	File    string
	Line    int
	Col     int
	Check   string
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// defaultDeterministic lists the module-relative packages whose fixed-seed
// reproducibility the determinism check protects. internal/anneal rides along
// with the seven packages named by the search/training path: simulated
// annealing is seeded the same way and breaks the same way. internal/serve
// joins them because byte-identical run-log replay depends on the serving
// loop's order of work.
var defaultDeterministic = []string{
	"internal/mcts",
	"internal/nn",
	"internal/simenv",
	"internal/dag",
	"internal/resource",
	"internal/cluster",
	"internal/drl",
	"internal/anneal",
	"internal/serve",
}

// Deterministic reports whether the package at the module-relative path
// ("internal/mcts") is subject to the determinism check.
func Deterministic(rel string) bool {
	return slices.Contains(defaultDeterministic, rel)
}

// Check names, stamped on every Diagnostic.
const (
	checkNameDeterminism = "determinism"
	checkNameErrflow     = "errflow"
)

// checkTable lists every check in pass order. Adding a check is adding a
// row, and a row earns its place with an entry in TestMutationRows.
var checkTable = []func(p *pass) []Diagnostic{
	(*pass).checkDeterminism, // map ranges; marker //spear:sorted (checks.go)
	(*pass).checkErrflow,     // dropped errors; marker //spear:ignoreerr(reason) (errflow.go)
}

// pass is one type-checked package under analysis.
type pass struct {
	fset          *token.FileSet
	files         []*ast.File
	info          *types.Info
	deterministic bool
}

// Check runs every check over the files of one type-checked package and
// returns the findings sorted by position. info must hold the Types, Defs,
// Uses and Selections of a type-check that covered the files; it may cover
// more (the tool type-checks _test.go files with the package but passes
// only the others). deterministic turns on the determinism check.
func Check(fset *token.FileSet, files []*ast.File, info *types.Info, deterministic bool) []Diagnostic {
	p := &pass{fset: fset, files: files, info: info, deterministic: deterministic}
	var diags []Diagnostic
	for _, run := range checkTable {
		diags = append(diags, run(p)...)
	}
	sortDiagnostics(diags)
	return diags
}

// sortDiagnostics orders findings by (file, line, col, check, message) so
// two runs over the same tree print byte-identical output regardless of map
// iteration order anywhere in the passes.
func sortDiagnostics(diags []Diagnostic) {
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(cmp.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line), cmp.Compare(a.Col, b.Col),
			cmp.Compare(a.Check, b.Check), cmp.Compare(a.Message, b.Message))
	})
}

// diag appends a finding at pos.
func (p *pass) diag(diags *[]Diagnostic, pos token.Pos, check, format string, args ...any) {
	at := p.fset.Position(pos)
	*diags = append(*diags, Diagnostic{
		File:    at.Filename,
		Line:    at.Line,
		Col:     at.Column,
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	})
}
