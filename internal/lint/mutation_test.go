package lint

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// vetTool is the spear-vet binary TestMain builds for the tests that run
// the analyzer the way CI does.
var vetTool string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "spear-vet")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	vetTool = filepath.Join(dir, "spear-vet")
	code := 1
	if out, err := exec.Command("go", "build", "-o", vetTool, "spear/cmd/spear-vet").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building spear-vet: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	os.Exit(code)
}

// goVet runs `go vet -vettool=spear-vet` on the patterns from dir and
// returns its combined output; err is non-nil when it exits non-zero.
func goVet(dir string, patterns ...string) (string, error) {
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + vetTool}, patterns...)...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// finding matches one diagnostic line of spear-vet's output.
var finding = regexp.MustCompile(`^(.+?:\d+):\d+: \[(\w+)\] (.*)$`)

// mutationRow is one edit to product code. A defect row seeds a defect
// that go vet, go test ./... and go test -race -short ./... all let through
// (only spear-vet's own TestRepositoryClean and cmd/spear-vet tests notice),
// and that one check reports. Every check keeps its place by having a row;
// DESIGN.md §11 carries the same table. A row with an empty old creates the
// file instead and must leave the analyzer silent.
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
	// A generator excluded by its build constraint is not part of the
	// package: the go command leaves it out, so its second main is no error.
	{name: "clean/build-constraint", file: "cmd/spear-trace/gen.go",
		new: "//go:build ignore\n\npackage main\n\nfunc main() {}\n"},
}

// TestMutationRows applies each row to a copy of the module and runs
// `go vet -vettool=spear-vet` on the edited package. A defect row requires
// exactly the row's finding: at least one diagnostic, every one from the
// row's check and either at the finding's line or naming it in the
// message. A clean row requires no output.
func TestMutationRows(t *testing.T) {
	tmp := t.TempDir()
	copyModuleSources(t, "../..", tmp)
	for _, row := range mutationRows {
		t.Run(row.name, func(t *testing.T) {
			path := filepath.Join(tmp, filepath.FromSlash(row.file))
			pkg := "./" + filepath.ToSlash(filepath.Dir(row.file))
			if row.old == "" {
				edit(t, path, row.new)
				if out, err := goVet(tmp, pkg); err != nil || out != "" {
					t.Fatalf("go vet -vettool: %v\n%s", err, out)
				}
				return
			}
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
			edit(t, path, src[:at]+row.new+src[at+len(row.old):])

			out, err := goVet(tmp, pkg)
			check, _, _ := strings.Cut(row.name, "/")
			site := fmt.Sprintf("%s:%d", row.file, line)
			named := regexp.MustCompile(regexp.QuoteMeta(site) + `\D`)
			found := 0
			for _, l := range strings.Split(strings.TrimSpace(out), "\n") {
				if strings.HasPrefix(l, "# ") {
					continue // the go command's package header
				}
				m := finding.FindStringSubmatch(l)
				if m == nil || m[2] != check || (m[1] != site && !named.MatchString(m[3])) {
					t.Errorf("output unrelated to the defect seeded at %s: %s", site, l)
				}
				found++
			}
			if err == nil || found == 0 {
				t.Fatalf("%s did not report the defect seeded at %s (go vet: %v)", check, site, err)
			}
		})
	}
}

// edit writes src to the file at path, which may be new, and restores the
// file when the test ends.
func edit(t *testing.T, path, src string) {
	t.Helper()
	orig, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		restore := os.Remove(path)
		if orig != nil {
			restore = os.WriteFile(path, orig, 0o644)
		}
		if restore != nil {
			t.Error(restore)
		}
	})
}

// copyModuleSources copies go.mod and every non-test .go file and assembly
// (.s) file outside testdata and hidden directories from root to dst.
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
		source := strings.HasSuffix(name, ".s") || strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
		if name != "go.mod" && !source {
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
