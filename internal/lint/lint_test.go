package lint

import (
	"errors"
	"go/parser"
	"go/token"
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

// loadWants scans every non-test .go file of dir for want comments and
// returns them keyed by "basename:line".
func loadWants(t *testing.T, dir string) map[string][]want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[string][]want)
	fset := token.NewFileSet()
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, group := range f.Comments {
			for _, c := range group.List {
				for _, m := range wantPattern.FindAllStringSubmatch(c.Text, -1) {
					col := 0
					if m[1] != "" {
						col, err = strconv.Atoi(m[1])
						if err != nil {
							t.Fatal(err)
						}
					}
					key := name + ":" + strconv.Itoa(fset.Position(c.Pos()).Line)
					wants[key] = append(wants[key], want{col: col, substr: m[2]})
				}
			}
		}
	}
	return wants
}

// runGolden analyzes the given testdata packages together and requires an
// exact two-way match between the diagnostics and the want comments of every
// package: no unexpected findings, no unmatched wants, and matching columns
// wherever a want asserts one.
func runGolden(t *testing.T, pkgs []string, cfg Config) {
	t.Helper()
	dirs := make([]string, len(pkgs))
	wants := make(map[string][]want)
	for i, pkg := range pkgs {
		dirs[i] = filepath.Join("testdata", "src", pkg)
		for key, ws := range loadWants(t, dirs[i]) {
			wants[key] = append(wants[key], ws...)
		}
	}
	diags, err := AnalyzeDirs(dirs, cfg)
	if err != nil {
		t.Fatalf("AnalyzeDirs(%v): %v", dirs, err)
	}
	for _, d := range diags {
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
	// The testdata package is not on the default deterministic list; opt it in.
	runGolden(t, []string{"determinism"}, Config{
		Deterministic: []string{"internal/lint/testdata/src/determinism"},
		Checks:        []string{checkNameDeterminism},
	})
}

func TestGoldenErrflow(t *testing.T) {
	runGolden(t, []string{"errflow"}, Config{Checks: []string{checkNameErrflow}})
}

// TestErrflowReportsGoto pins errflow's fail-closed rule: the walk does not
// follow goto, so every goto is a finding of its own.
func TestErrflowReportsGoto(t *testing.T) {
	dir := t.TempDir()
	src := "package g\n\nfunc f(n int) int {\nloop:\n\tif n > 0 {\n\t\tn--\n\t\tgoto loop\n\t}\n\treturn n\n}\n"
	for name, data := range map[string]string{"go.mod": "module g\n\ngo 1.22\n", "g.go": src} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	diags, err := AnalyzeDirs([]string{dir}, Config{Checks: []string{checkNameErrflow}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Line != 7 || !strings.Contains(diags[0].Message, "does not follow goto") {
		t.Fatalf("diagnostics %v, want one goto finding at g.go:7", diags)
	}
}

// TestAnalyzeDeterministic runs the full pipeline twice over the
// finding-rich golden packages and requires byte-identical output: map
// iteration inside the passes must never leak into diagnostic order or
// content.
func TestAnalyzeDeterministic(t *testing.T) {
	dirs := []string{
		filepath.Join("testdata", "src", "determinism"),
		filepath.Join("testdata", "src", "errflow"),
	}
	cfg := Config{Deterministic: []string{"internal/lint/testdata/src/determinism"}}
	run := func() []Diagnostic {
		t.Helper()
		diags, err := AnalyzeDirs(dirs, cfg)
		if err != nil {
			t.Fatalf("AnalyzeDirs: %v", err)
		}
		return diags
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two runs disagree:\nfirst:  %v\nsecond: %v", first, second)
	}
	if len(first) == 0 {
		t.Fatal("golden packages produced no diagnostics; the determinism check is vacuous")
	}
}

// TestPackageCache asserts type-checked packages are cached across Analyze
// calls on one Runner: a second pass over the same directories loads nothing.
func TestPackageCache(t *testing.T) {
	r, err := NewRunner(".", Config{Checks: []string{checkNameErrflow}})
	if err != nil {
		t.Fatal(err)
	}
	dirs := []string{filepath.Join("testdata", "src", "errflow")}
	_, stats1, err := r.Analyze(dirs)
	if err != nil {
		t.Fatal(err)
	}
	if stats1.PackagesLoaded < 1 {
		t.Fatalf("first run PackagesLoaded = %d, want at least 1", stats1.PackagesLoaded)
	}
	_, stats2, err := r.Analyze(dirs)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.PackagesLoaded != stats1.PackagesLoaded {
		t.Errorf("second run PackagesLoaded = %d, want %d (cache hit)", stats2.PackagesLoaded, stats1.PackagesLoaded)
	}
}

// TestUnknownCheckRejected pins the -check flag's failure mode: an unknown
// name is a configuration error, not an empty run.
func TestUnknownCheckRejected(t *testing.T) {
	_, err := NewRunner(".", Config{Checks: []string{"nosuchcheck"}})
	if err == nil || !strings.Contains(err.Error(), "unknown check") {
		t.Fatalf("NewRunner error = %v, want unknown-check error", err)
	}
}

// TestLoadErrorOnTypeError asserts a package that fails type-checking
// surfaces as a LoadError (spear-vet exit 2), never as findings.
func TestLoadErrorOnTypeError(t *testing.T) {
	dir := filepath.Join("testdata", "src", "broken")
	diags, err := AnalyzeDirs([]string{dir}, Config{})
	if err == nil {
		t.Fatalf("AnalyzeDirs(%s) = %d diagnostics, want load error", dir, len(diags))
	}
	var le *LoadError
	if !errors.As(err, &le) {
		t.Fatalf("AnalyzeDirs(%s) error = %T (%v), want *LoadError", dir, err, err)
	}
	if !strings.Contains(le.Path, "broken") {
		t.Errorf("LoadError.Path = %q, want the broken package path", le.Path)
	}
}

// TestRepositoryClean runs the analyzer over the whole module with the
// default configuration, exactly like `spear-vet ./...` in CI: the checked-in
// tree must produce zero findings.
func TestRepositoryClean(t *testing.T) {
	root, _, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ExpandPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("ExpandPatterns found no packages")
	}
	diags, err := AnalyzeDirs(dirs, Config{})
	if err != nil {
		t.Fatalf("AnalyzeDirs: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestExpandPatternsSkipsTestdata asserts the golden packages (which contain
// deliberate violations) never leak into a ./... run.
func TestExpandPatternsSkipsTestdata(t *testing.T) {
	root, _, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ExpandPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if strings.Contains(dir, "testdata") {
			t.Errorf("ExpandPatterns included %s", dir)
		}
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
