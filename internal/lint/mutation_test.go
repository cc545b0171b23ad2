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
// that one check reports. Every check outside the concurrency discipline
// keeps its place by having a row; DESIGN.md §11 carries the same table.
type mutationRow struct {
	name  string // check/rule, the subtest name
	file  string // module-relative product file
	after string // the edit applies to the first old at or after this text; "" means the file start
	old   string // text on one line, replaced by new
	new   string
	shift int // line of the finding relative to the edited line
}

var mutationRows = []mutationRow{
	{name: "noalloc/own-body", file: "internal/mcts/mcts.go",
		after: "func (tw *treeWorker) selectChild(", old: "best := first", new: "best := first; _ = make([]int, 1)"},
	{name: "noalloc/callee", file: "internal/simenv/env.go",
		after: "func (e *Env) earliestRunningFinish(", old: "earliest := e.finish[e.running[0]]",
		new: "earliest := e.finish[e.running[0]]; _ = make([]int, 1)"},
	{name: "determinism/global-rand", file: "internal/anneal/anneal.go",
		old: "i, j := rng.Intn(n), rng.Intn(n)", new: "i, j := rand.Intn(n), rng.Intn(n)"},
	{name: "determinism/map-range", file: "internal/mcts/tt.go",
		after: "if len(t.m) >= t.cap {", old: "clear(t.m)", new: "for k := range t.m { delete(t.m, k); break }"},
	{name: "metrics/shared-name", file: "internal/obs/bundles.go",
		old: `r.Counter("spear_train_policy_calls_total",`, new: `r.Counter("spear_search_policy_calls_total",`},
	{name: "errflow/dropped-close", file: "cmd/spear-sim/main.go",
		after: "func writeSVGFile(", old: "return f.Close()", new: "f.Close(); return nil"},
	{name: "ctxpoll/unpolled-loop", file: "internal/mcts/mcts.go",
		after: "func (sw *simWorker) searchSerial(", old: "if ctx.Err() != nil {", new: "if false {",
		shift: -1}, // reported at the loop header above the dropped poll
}

// TestMutationRows applies each row to a copy of the module and requires
// exactly the row's finding: at least one diagnostic, every one from the
// row's check and either at the finding's line or naming it (the callee rule
// reports at the call site in the noalloc caller, with the allocation's
// file:line in the message).
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
