package lint

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mutationRow is one seeded defect in product code: a one-line edit that
// go vet, go test ./... and go test -race -short ./... all let through (only
// spear-vet's own TestRepositoryClean and cmd/spear-vet tests notice), and
// that one check reports. Every check keeps its place by having a row;
// DESIGN.md §11 carries the same table.
type mutationRow struct {
	name  string // check/rule, the subtest name
	file  string // module-relative product file
	after string // the edit applies to the first old at or after this text; "" means the file start
	old   string // text on one line, replaced by new
	new   string
	shift int // line of the finding relative to the edited line
}

var mutationRows = []mutationRow{
	{name: "determinism/map-range", file: "internal/mcts/tt.go",
		after: "if len(t.m) >= t.cap {", old: "clear(t.m)",
		new: "for k := range t.m { if len(t.m) <= t.cap/2 { break }; delete(t.m, k) }"},
	{name: "errflow/dropped-close", file: "cmd/spear-sim/main.go",
		after: "func writeSVGFile(", old: "return f.Close()", new: "f.Close(); return nil"},
	{name: "errflow/unchecked-path", file: "internal/experiments/run.go",
		after: "func exportCSV(", old: "if err != nil {", new: "if f == nil {",
		shift: -2}, // reported at the write-and-close assignment the else path drops
}

// TestMutationRows applies each row to a copy of the module and requires
// exactly the row's finding: at least one diagnostic, every one from the
// row's check and either at the finding's line or naming it in the message.
func TestMutationRows(t *testing.T) {
	root, _, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	copyModuleSources(t, root, tmp)
	for _, row := range mutationRows {
		t.Run(row.name, func(t *testing.T) {
			check, _, _ := strings.Cut(row.name, "/")
			path := filepath.Join(tmp, filepath.FromSlash(row.file))
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			src := string(orig)
			from := strings.Index(src, row.after)
			at := strings.Index(src[max(from, 0):], row.old)
			if from < 0 || at < 0 || strings.Contains(row.old+row.new, "\n") {
				t.Fatalf("%s: no one-line %q after %q; update the row to the moved code", row.file, row.old, row.after)
			}
			at += from
			line := 1 + strings.Count(src[:at], "\n") + row.shift
			mutated := src[:at] + row.new + src[at+len(row.old):]
			if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.WriteFile(path, orig, 0o644); err != nil {
					t.Fatal(err)
				}
			}()

			diags, err := AnalyzeDirs([]string{filepath.Dir(path)}, Config{Checks: []string{check}})
			if err != nil {
				t.Fatal(err)
			}
			site := fmt.Sprintf("%s:%d", row.file, line)
			named := regexp.MustCompile(regexp.QuoteMeta(site) + `\D`)
			if len(diags) == 0 {
				t.Fatalf("%s did not report the defect seeded at %s", check, site)
			}
			for _, d := range diags {
				if d.Check != check || (fmt.Sprintf("%s:%d", d.File, d.Line) != site && !named.MatchString(d.Message)) {
					t.Errorf("finding unrelated to the defect seeded at %s: %s", site, d)
				}
			}
		})
	}
}

// copyModuleSources copies go.mod and every non-test .go file outside
// testdata and hidden directories from root to dst.
func copyModuleSources(t *testing.T, root, dst string) {
	t.Helper()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if name != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
