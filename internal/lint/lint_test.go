package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wantPattern matches the expected-diagnostic comments of the golden files:
// `// want "substring"` or, with a column assertion, `// want 7 "substring"`.
var wantPattern = regexp.MustCompile(`want (?:(\d+) )?"([^"]*)"`)

// want is one expected diagnostic: a message substring and, when col is
// non-zero, the exact column the diagnostic must carry.
type want struct {
	col    int
	substr string
}

// loadWants collects the want comments of the files, keyed by
// "basename:line".
func loadWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[string][]want {
	t.Helper()
	wants := make(map[string][]want)
	for _, f := range files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				for _, m := range wantPattern.FindAllStringSubmatch(c.Text, -1) {
					col := 0
					if m[1] != "" {
						var err error
						if col, err = strconv.Atoi(m[1]); err != nil {
							t.Fatal(err)
						}
					}
					at := fset.Position(c.Pos())
					key := filepath.Base(at.Filename) + ":" + strconv.Itoa(at.Line)
					wants[key] = append(wants[key], want{col: col, substr: m[2]})
				}
			}
		}
	}
	return wants
}

// parseFixture parses every file of the testdata package.
func parseFixture(t *testing.T, pkg string) (*token.FileSet, []*ast.File) {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkg)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, ent := range entries {
		f, err := parser.ParseFile(fset, filepath.Join(dir, ent.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return fset, files
}

// checkFixture type-checks the testdata package against the compiler's
// export data and runs every check over it, determinism included.
func checkFixture(t *testing.T, pkg string) []Diagnostic {
	t.Helper()
	fset, files := parseFixture(t, pkg)
	return checkFiles(t, fset, files)
}

// checkFiles type-checks one package's files and runs Check over them.
func checkFiles(t *testing.T, fset *token.FileSet, files []*ast.File) []Diagnostic {
	t.Helper()
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", nil)}
	if _, err := conf.Check(files[0].Name.Name, fset, files, info); err != nil {
		t.Fatal(err)
	}
	return Check(fset, files, info, true)
}

// runGolden checks one testdata package and requires an exact two-way match
// between the named check's diagnostics and the package's want comments: no
// unexpected findings, no unmatched wants, and matching columns wherever a
// want asserts one.
func runGolden(t *testing.T, pkg, check string) {
	t.Helper()
	fset, files := parseFixture(t, pkg)
	wants := loadWants(t, fset, files)
	for _, d := range checkFiles(t, fset, files) {
		if d.Check != check {
			continue
		}
		key := filepath.Base(d.File) + ":" + strconv.Itoa(d.Line)
		matched := -1
		for i, w := range wants[key] {
			if strings.Contains(d.Message, w.substr) && (w.col == 0 || w.col == d.Col) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		wants[key] = append(wants[key][:matched], wants[key][matched+1:]...)
		if len(wants[key]) == 0 {
			delete(wants, key)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if w.col != 0 {
				t.Errorf("missing diagnostic at %s col %d matching %q", key, w.col, w.substr)
			} else {
				t.Errorf("missing diagnostic at %s matching %q", key, w.substr)
			}
		}
	}
}

func TestGoldenDeterminism(t *testing.T) {
	runGolden(t, "determinism", checkNameDeterminism)
}

func TestGoldenErrflow(t *testing.T) {
	runGolden(t, "errflow", checkNameErrflow)
}

// TestErrflowReportsGoto pins errflow's fail-closed rule: the walk does not
// follow goto, so every goto is a finding of its own.
func TestErrflowReportsGoto(t *testing.T) {
	src := "package g\n\nfunc f(n int) int {\nloop:\n\tif n > 0 {\n\t\tn--\n\t\tgoto loop\n\t}\n\treturn n\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "g.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	diags := checkFiles(t, fset, []*ast.File{f})
	if len(diags) != 1 || diags[0].Line != 7 || !strings.Contains(diags[0].Message, "does not follow goto") {
		t.Fatalf("diagnostics %v, want one goto finding at g.go:7", diags)
	}
}

// TestAnalyzeDeterministic checks the finding-rich golden packages twice
// and requires identical output: map iteration inside the passes must never
// leak into diagnostic order or content.
func TestAnalyzeDeterministic(t *testing.T) {
	run := func() []Diagnostic {
		return append(checkFixture(t, "determinism"), checkFixture(t, "errflow")...)
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two runs disagree:\nfirst:  %v\nsecond: %v", first, second)
	}
	if len(first) == 0 {
		t.Fatal("golden packages produced no diagnostics; the determinism check is vacuous")
	}
}

// TestRepositoryClean runs the analyzer over the whole module exactly like
// CI's `go vet -vettool=spear-vet ./...`: the checked-in tree, test
// variants included, must produce no output.
func TestRepositoryClean(t *testing.T) {
	if out, err := goVet("../..", "./..."); err != nil || out != "" {
		t.Fatalf("go vet -vettool ./...: %v\n%s", err, out)
	}
}

// TestCarriesMarker pins down the annotation grammar: a marker must open the
// comment's content; prose that mentions a marker mid-sentence annotates
// nothing.
func TestCarriesMarker(t *testing.T) {
	cases := []struct {
		line string
		want bool
	}{
		{"//spear:sorted", true},
		{"// spear:sorted — summation is order-insensitive", true},
		{"//spear:sorted — trailing prose", true},
		{"// loops under //spear:sorted keep their order", false},
		{"// spear:sortedX", true}, // prefix match; suffix text is prose
		{"// nothing here", false},
	}
	for _, c := range cases {
		if _, got := markerArgFrom(c.line, markerSorted); got != c.want {
			t.Errorf("markerArgFrom(%q) matched = %v, want %v", c.line, got, c.want)
		}
	}
}

// TestDiagnosticString pins the file:line:col rendering the CI log and
// editors rely on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{File: "internal/x/x.go", Line: 3, Col: 7, Check: "errflow", Message: `result of internal/x.f dropped`}
	want := `internal/x/x.go:3:7: [errflow] result of internal/x.f dropped`
	if d.String() != want {
		t.Errorf("String() = %q, want %q", d.String(), want)
	}
}
