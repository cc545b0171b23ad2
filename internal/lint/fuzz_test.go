package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// genAtomicFixture turns a fuzz byte string into one synthetic package:
// a struct mirroring the arena node (first is a //spear:atomic sibling
// link) plus one function per input byte, each performing one access of a
// randomized kind. It returns the source and the number of findings the
// atomic check must report — exactly the plain accesses outside
// //spear:init / //spear:xclusive functions.
func genAtomicFixture(data []byte) (src string, wantFindings int) {
	var b strings.Builder
	b.WriteString("package fuzzfixture\n\nimport \"sync/atomic\"\n\n")
	b.WriteString("// anode mirrors the arena node: first is a lock-free sibling link.\ntype anode struct {\n\t//spear:atomic\n\tfirst int32\n}\n\n")
	// A baseline atomic access keeps the import used on every input and
	// exercises the mixed-access citation whenever a plain site appears.
	b.WriteString("func baseline(n *anode) int32 { return atomic.LoadInt32(&n.first) }\n\n")
	if len(data) > 24 {
		data = data[:24]
	}
	for i, op := range data {
		switch op % 7 {
		case 0:
			fmt.Fprintf(&b, "func f%d(n *anode) int32 { return atomic.LoadInt32(&n.first) }\n\n", i)
		case 1:
			fmt.Fprintf(&b, "func f%d(n *anode) { atomic.AddInt32(&n.first, 1) }\n\n", i)
		case 2:
			fmt.Fprintf(&b, "func f%d(n *anode) int32 { return n.first }\n\n", i)
			wantFindings++
		case 3:
			fmt.Fprintf(&b, "func f%d(n *anode) { n.first = 2 }\n\n", i)
			wantFindings++
		case 4:
			fmt.Fprintf(&b, "func f%d(n *anode) *int32 { return &n.first }\n\n", i)
			wantFindings++
		case 5:
			fmt.Fprintf(&b, "//spear:init\nfunc f%d() *anode {\n\tn := &anode{}\n\tn.first = -1\n\treturn n\n}\n\n", i)
		case 6:
			fmt.Fprintf(&b, "//spear:xclusive\nfunc f%d(n *anode) { n.first = 0 }\n\n", i)
		}
	}
	return b.String(), wantFindings
}

// genCFGFixture turns fuzz bytes into one import-free function exercising
// the full construct set the CFG builder handles: if/else, three loop forms,
// switch with fallthrough, type switch, select with and without default,
// labeled break/continue, goto, defer, panic and return. The source always
// type-checks, so the fuzz target asserts instead of skipping.
func genCFGFixture(data []byte) string {
	var b strings.Builder
	b.WriteString("package fuzzfixture\n\n")
	b.WriteString("func f(p bool, ch chan int, xs []int) int {\n\tx := 0\n")
	if len(data) > 24 {
		data = data[:24]
	}
	gotoUsed := false
	for i, op := range data {
		switch op % 16 {
		case 0:
			b.WriteString("\tx++\n")
		case 1:
			b.WriteString("\tif p {\n\t\tx++\n\t} else {\n\t\tx--\n\t}\n")
		case 2:
			b.WriteString("\tfor i := 0; i < 3; i++ {\n\t\tx += i\n\t\tif p {\n\t\t\tbreak\n\t\t}\n\t\tx++\n\t}\n")
		case 3:
			b.WriteString("\tfor {\n\t\tx++\n\t\tif p {\n\t\t\tbreak\n\t\t}\n\t\tcontinue\n\t}\n")
		case 4:
			b.WriteString("\tfor _, v := range xs {\n\t\tx += v\n\t\tif p {\n\t\t\tcontinue\n\t\t}\n\t}\n")
		case 5:
			b.WriteString("\tswitch x {\n\tcase 0:\n\t\tx++\n\t\tfallthrough\n\tcase 1:\n\t\tx--\n\tdefault:\n\t\tx += 2\n\t}\n")
		case 6:
			b.WriteString("\tswitch x {\n\tcase 2:\n\t\tx++\n\t}\n")
		case 7:
			b.WriteString("\tselect {\n\tcase v := <-ch:\n\t\tx += v\n\tcase ch <- x:\n\t\tx--\n\t}\n")
		case 8:
			b.WriteString("\tselect {\n\tcase <-ch:\n\t\tx++\n\tdefault:\n\t\tx--\n\t}\n")
		case 9:
			fmt.Fprintf(&b, "L%d:\n\tfor i := 0; i < 2; i++ {\n\t\tfor {\n\t\t\tif p {\n\t\t\t\tbreak L%d\n\t\t\t}\n\t\t\tcontinue L%d\n\t\t}\n\t}\n", i, i, i)
		case 10:
			b.WriteString("\tif p {\n\t\treturn x\n\t}\n")
		case 11:
			b.WriteString("\tdefer print(x)\n")
		case 12:
			b.WriteString("\tif p {\n\t\tpanic(\"boom\")\n\t}\n")
		case 13:
			b.WriteString("\tx = x + len(xs)\n")
		case 14:
			b.WriteString("\tswitch t := any(x).(type) {\n\tcase int:\n\t\tx += t\n\tdefault:\n\t\t_ = t\n\t}\n")
		case 15:
			if !gotoUsed {
				gotoUsed = true
				b.WriteString("\tif p {\n\t\tgoto Lend\n\t}\n")
			} else {
				b.WriteString("\tx--\n")
			}
		}
	}
	if gotoUsed {
		b.WriteString("Lend:\n\tx++\n")
	}
	b.WriteString("\treturn x\n}\n")
	return b.String()
}

// cfgLeafStmts walks a body exactly along the builder's leaf-statement
// notion: simple statements, the RangeStmt header and the type-switch assign
// are items; compound statements and branch statements are not.
func cfgLeafStmts(body *ast.BlockStmt) []ast.Node {
	var out []ast.Node
	var walk func(ast.Stmt)
	walkList := func(list []ast.Stmt) {
		for _, s := range list {
			walk(s)
		}
	}
	walk = func(s ast.Stmt) {
		switch t := s.(type) {
		case nil, *ast.BranchStmt:
		case *ast.BlockStmt:
			walkList(t.List)
		case *ast.LabeledStmt:
			walk(t.Stmt)
		case *ast.IfStmt:
			walk(t.Init)
			walkList(t.Body.List)
			walk(t.Else)
		case *ast.ForStmt:
			walk(t.Init)
			walkList(t.Body.List)
			walk(t.Post)
		case *ast.RangeStmt:
			out = append(out, t)
			walkList(t.Body.List)
		case *ast.SwitchStmt:
			walk(t.Init)
			for _, cs := range t.Body.List {
				walkList(cs.(*ast.CaseClause).Body)
			}
		case *ast.TypeSwitchStmt:
			walk(t.Init)
			out = append(out, t.Assign)
			for _, cs := range t.Body.List {
				walkList(cs.(*ast.CaseClause).Body)
			}
		case *ast.SelectStmt:
			for _, cs := range t.Body.List {
				cc := cs.(*ast.CommClause)
				walk(cc.Comm)
				walkList(cc.Body)
			}
		default:
			out = append(out, s)
		}
	}
	walkList(body.List)
	return out
}

// FuzzCFGBuilder generates control-flow-rich functions and asserts the
// builder's structural invariants — every leaf statement lands in exactly
// one block, no item is duplicated across blocks, the entry is reachable —
// and that the dataflow solver reaches fixpoint well inside its safety-net
// iteration bound. A second generated package runs the guardedby
// interpretation over lock-discipline shapes and requires exactly the findings
// the generator's hand-written oracle expects, line for line.
func FuzzCFGBuilder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 7, 9, 15})                        // loops, select, labeled break, goto
	f.Add([]byte{5, 14, 8, 10, 12})                   // fallthrough, type switch, default select
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})             // one of nearly everything
	f.Add([]byte{15, 9, 9, 11, 13, 6, 1, 0, 3, 2, 4}) // dense nesting
	f.Fuzz(func(t *testing.T, data []byte) {
		src := genCFGFixture(data)
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "gen.go", src, parser.ParseComments)
		if err != nil {
			t.Fatalf("generated source does not parse: %v\n%s", err, src)
		}
		info := &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		}
		conf := types.Config{}
		if _, err := conf.Check("fuzzfixture", fset, []*ast.File{file}, info); err != nil {
			t.Fatalf("generated source does not type-check: %v\n%s", err, src)
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			cfg := buildCFG(fd.Body, info)
			seen := make(map[ast.Node]int)
			for _, blk := range cfg.blocks {
				for _, item := range blk.items {
					seen[item]++
				}
			}
			for n, count := range seen {
				if count > 1 {
					t.Errorf("item at %s appears in %d blocks\n%s", fset.Position(n.Pos()), count, src)
				}
			}
			for _, leaf := range cfgLeafStmts(fd.Body) {
				if seen[leaf] != 1 {
					t.Errorf("leaf statement at %s lands in %d blocks, want 1\n%s",
						fset.Position(leaf.Pos()), seen[leaf], src)
				}
			}
			if cfg.entry == nil || cfg.exit == nil {
				t.Fatalf("missing entry or exit block\n%s", src)
			}
			// Fixpoint: a union-of-visited-blocks lattice has height equal to
			// the block count, so the solver must converge far below the
			// safety-net bound.
			_, reached, steps := solveForward(cfg, map[int]bool{},
				func(b *cfgBlock, in map[int]bool) map[int]bool {
					out := make(map[int]bool, len(in)+1)
					for k := range in {
						out[k] = true
					}
					out[b.index] = true
					return out
				},
				func(a, b map[int]bool) map[int]bool {
					out := make(map[int]bool, len(a)+len(b))
					for k := range a {
						out[k] = true
					}
					for k := range b {
						out[k] = true
					}
					return out
				},
				func(a, b map[int]bool) bool {
					if len(a) != len(b) {
						return false
					}
					for k := range a {
						if !b[k] {
							return false
						}
					}
					return true
				})
			if !reached[cfg.entry.index] {
				t.Errorf("entry block not reached by the solver\n%s", src)
			}
			if limit := len(cfg.blocks)*64 + 64; steps >= limit {
				t.Errorf("solver hit the safety-net bound (%d steps, %d blocks)\n%s", steps, len(cfg.blocks), src)
			}
		}

		// Oracle: guardedby over the generated lock-discipline shapes reports
		// exactly the accesses the generator knows to be unguarded.
		guardSrc, wantLines := genGuardFixture(data)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fuzzfixture\n\ngo 1.22\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "gen.go"), []byte(guardSrc), 0o644); err != nil {
			t.Fatal(err)
		}
		diags, err := AnalyzeDirs([]string{dir}, Config{Checks: []string{checkNameGuardedBy}})
		if err != nil {
			t.Fatalf("guardedby over generated source: %v\n%s", err, guardSrc)
		}
		var gotLines []int
		for _, d := range diags {
			gotLines = append(gotLines, d.Line)
		}
		if !slices.Equal(gotLines, wantLines) {
			t.Errorf("guardedby findings at lines %v, generator expects %v\nfindings: %v\nsource:\n%s",
				gotLines, wantLines, diags, guardSrc)
		}
	})
}

// guardShapes are the lock-discipline bodies genGuardFixture draws from, each
// with its hand-written verdict: finding is the body line (0-based) of the
// b.v access that is not provably under b.mu, or -1 when every path to the
// access holds the lock.
var guardShapes = []struct {
	body    string
	finding int
}{
	{"\tb.mu.Lock()\n\tb.v++\n\tb.mu.Unlock()\n", -1},
	{"\tb.v++\n", 0},
	// Locked on the p path only: the join drops the lock.
	{"\tif p {\n\t\tb.mu.Lock()\n\t}\n\tb.v++\n\tif p {\n\t\tb.mu.Unlock()\n\t}\n", 3},
	// The unlocking branch returns, so only the locked path reaches the access.
	{"\tb.mu.Lock()\n\tif p {\n\t\tb.mu.Unlock()\n\t\treturn\n\t}\n\tb.v++\n\tb.mu.Unlock()\n", -1},
	{"\tb.mu.Lock()\n\tdefer b.mu.Unlock()\n\tif p {\n\t\tb.v++\n\t} else {\n\t\tb.v--\n\t}\n", -1},
	// Released two branches deep without leaving.
	{"\tb.mu.Lock()\n\tif p {\n\t\tif q {\n\t\t\tb.mu.Unlock()\n\t\t}\n\t}\n\tb.v++\n", 6},
	{"\tif p {\n\t\tb.mu.Lock()\n\t} else {\n\t\tb.mu.Lock()\n\t}\n\tb.v++\n\tb.mu.Unlock()\n", -1},
	{"\tb.mu.Lock()\n\tb.mu.Unlock()\n\tb.v++\n", 2},
	// The loop body releases the lock, so the second iteration runs without it.
	{"\tb.mu.Lock()\n\tfor i := 0; i < 2; i++ {\n\t\tb.v++\n\t\tb.mu.Unlock()\n\t}\n", 2},
	// One select arm releases; select without default has no fall-through
	// edge, so the merge is the join of the arms alone.
	{"\tb.mu.Lock()\n\tselect {\n\tcase <-ch:\n\t\tb.mu.Unlock()\n\tcase ch <- 1:\n\t}\n\tb.v++\n", 6},
}

// genGuardFixture turns fuzz bytes into one package of guardShapes functions
// and returns the source with the lines guardedby must report, ascending.
func genGuardFixture(data []byte) (src string, wantLines []int) {
	var b strings.Builder
	b.WriteString("package fuzzfixture\n\nimport \"sync\"\n\ntype gbox struct {\n\tmu sync.Mutex\n\t//spear:guardedby(mu)\n\tv int\n}\n\n")
	if len(data) > 16 {
		data = data[:16]
	}
	for i, op := range data {
		shape := guardShapes[int(op)%len(guardShapes)]
		fmt.Fprintf(&b, "func g%d(b *gbox, p, q bool, ch chan int) {\n", i)
		if shape.finding >= 0 {
			// The builder ends on the first body line: one past the newlines so far.
			wantLines = append(wantLines, strings.Count(b.String(), "\n")+1+shape.finding)
		}
		b.WriteString(shape.body)
		b.WriteString("}\n\n")
	}
	return b.String(), wantLines
}

// FuzzAtomicDiscipline drives the atomic-field check over randomized
// interleavings of atomic, plain and exempt accesses to a marked arena-node
// field and requires the finding count to match the generator's oracle: no
// plain access slips through, no atomic or exempt access is flagged.
func FuzzAtomicDiscipline(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2}) // the deliberate plain read of the atomic link field
	f.Add([]byte{0, 1, 5, 6})
	f.Add([]byte{2, 3, 4, 0, 6, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		src, want := genAtomicFixture(data)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fuzzfixture\n\ngo 1.22\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "gen.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		diags, err := AnalyzeDirs([]string{dir}, Config{Checks: []string{checkNameAtomic}})
		if err != nil {
			t.Fatalf("AnalyzeDirs over generated source: %v\nsource:\n%s", err, src)
		}
		for _, d := range diags {
			if d.Check != checkNameAtomic {
				t.Errorf("finding from check %q, want only %q: %s", d.Check, checkNameAtomic, d)
			}
		}
		if len(diags) != want {
			t.Fatalf("atomic check reported %d findings, generator expects %d\nsource:\n%s\nfindings: %v",
				len(diags), want, src, diags)
		}
	})
}
