// Per-function control-flow graphs over go/ast. The CFG is the substrate of
// the dataflow checks (dataflow.go): guardedby's held-lock interpretation and
// errflow's definite-use analysis solve a forward problem over the same block
// graph, so control-flow corner cases — select, goto, labeled break/continue,
// switch fallthrough — are handled once, here, instead of once per check.
//
// Construction rules:
//
//   - A block's items are leaf statements and guard expressions in execution
//     order. Compound statements (if/for/switch/select) never appear as
//     items; their pieces (init statements, conditions, clause expressions)
//     do. Every leaf statement lands in exactly one block (the fuzz target
//     FuzzCFGBuilder asserts this).
//   - return and panic edge to the synthetic exit block. break, continue and
//     goto edge to their targets (labels resolve forward: a goto may precede
//     its label). Code following a terminator opens a fresh, predecessor-less
//     block, so unreachable statements still belong to exactly one block and
//     the solver simply never visits them.
//   - for/range loops get a header block; the back edge returns to it, so a
//     forward solver naturally iterates loop bodies to fixpoint.
//   - switch without a default has an entry→merge edge (the whole statement
//     can fall through); select without a default does not — select blocks
//     until an arm fires. fallthrough edges to the next clause.
//   - defer statements are ordinary items, so expression scans see their
//     arguments; what the deferred call does at exit is up to the checks
//     (guardedby treats `defer mu.Unlock()` as "held to function end").
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// cfgBlock is one basic block: items in execution order plus successor edges.
type cfgBlock struct {
	index int
	items []ast.Node // leaf statements and guard/condition expressions
	succs []*cfgBlock
}

// funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	blocks []*cfgBlock
	entry  *cfgBlock
	exit   *cfgBlock // synthetic; returns and panics edge here
}

// cfgTarget is one break/continue resolution scope.
type cfgTarget struct {
	label  string    // enclosing label, "" for unlabeled constructs
	isLoop bool      // continue legal (for/range only)
	brk    *cfgBlock // break target (the construct's merge block)
	cont   *cfgBlock // continue target (post/header), loops only
}

// cfgBuilder carries the construction state.
type cfgBuilder struct {
	cfg     *funcCFG
	info    *types.Info // for builtin panic detection; may be nil
	cur     *cfgBlock
	targets []cfgTarget
	labels  map[string]*cfgBlock // goto/label targets, created on demand
}

// buildCFG constructs the graph of one function or closure body. info may be
// nil (panic calls then fall through instead of terminating, which is the
// conservative direction for every current lattice).
func buildCFG(body *ast.BlockStmt, info *types.Info) *funcCFG {
	b := &cfgBuilder{
		cfg:    &funcCFG{},
		info:   info,
		labels: make(map[string]*cfgBlock),
	}
	b.cfg.entry = b.newBlock()
	b.cfg.exit = b.newBlock()
	b.cur = b.cfg.entry
	b.stmts(body.List)
	b.edge(b.cur, b.cfg.exit)
	return b.cfg
}

// newBlock appends a fresh block.
func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.cfg.blocks)}
	b.cfg.blocks = append(b.cfg.blocks, blk)
	return blk
}

// edge links from → to.
func (b *cfgBuilder) edge(from, to *cfgBlock) {
	from.succs = append(from.succs, to)
}

// terminate ends the current block without a fallthrough successor and opens
// a fresh unreachable block for any statements that follow.
func (b *cfgBuilder) terminate() {
	b.cur = b.newBlock()
}

// item appends a leaf statement or expression to the current block.
func (b *cfgBuilder) item(n ast.Node) {
	b.cur.items = append(b.cur.items, n)
}

// labelBlock returns (creating on demand) the block a label names, so goto
// can target labels that appear later in the source.
func (b *cfgBuilder) labelBlock(name string) *cfgBlock {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

// stmts builds a statement list.
func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// stmt builds one statement.
func (b *cfgBuilder) stmt(stmt ast.Stmt) {
	switch s := stmt.(type) {
	case nil:
	case *ast.ExprStmt:
		b.item(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && b.isPanic(call) {
			b.edge(b.cur, b.cfg.exit)
			b.terminate()
		}
	case *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.GoStmt, *ast.DeferStmt, *ast.EmptyStmt:
		b.item(s)
	case *ast.ReturnStmt:
		b.item(s)
		b.edge(b.cur, b.cfg.exit)
		b.terminate()
	case *ast.BlockStmt:
		b.stmts(s.List)
	case *ast.LabeledStmt:
		b.labeled(s)
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, "")
	case *ast.RangeStmt:
		b.rangeStmt(s, "")
	case *ast.SwitchStmt:
		b.switchStmt(s, "")
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, "")
	case *ast.SelectStmt:
		b.selectStmt(s, "")
	default:
		// Future statement kinds degrade to straight-line items.
		b.item(stmt)
	}
}

// labeled wires a label: a named join block (the goto target), then the
// inner statement with the label bound for break/continue resolution.
func (b *cfgBuilder) labeled(s *ast.LabeledStmt) {
	blk := b.labelBlock(s.Label.Name)
	b.edge(b.cur, blk)
	b.cur = blk
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		b.forStmt(inner, s.Label.Name)
	case *ast.RangeStmt:
		b.rangeStmt(inner, s.Label.Name)
	case *ast.SwitchStmt:
		b.switchStmt(inner, s.Label.Name)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(inner, s.Label.Name)
	case *ast.SelectStmt:
		b.selectStmt(inner, s.Label.Name)
	default:
		b.stmt(s.Stmt)
	}
}

// branch wires break/continue/goto/fallthrough. fallthrough is handled by
// switchStmt directly (it needs the next clause), so a stray one here (only
// possible in code that would not compile) degrades to a terminator.
func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.GOTO:
		if s.Label != nil {
			b.edge(b.cur, b.labelBlock(s.Label.Name))
		}
	case token.BREAK:
		for i := len(b.targets) - 1; i >= 0; i-- {
			t := b.targets[i]
			if label == "" || t.label == label {
				b.edge(b.cur, t.brk)
				break
			}
		}
	case token.CONTINUE:
		for i := len(b.targets) - 1; i >= 0; i-- {
			t := b.targets[i]
			if t.isLoop && (label == "" || t.label == label) {
				b.edge(b.cur, t.cont)
				break
			}
		}
	}
	b.terminate()
}

// ifStmt: init and cond stay in the current block; then/else branch blocks
// rejoin at a merge block.
func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	b.stmt(s.Init)
	b.item(s.Cond)
	from := b.cur
	merge := b.newBlock()

	thenB := b.newBlock()
	b.edge(from, thenB)
	b.cur = thenB
	b.stmts(s.Body.List)
	b.edge(b.cur, merge)

	if s.Else != nil {
		elseB := b.newBlock()
		b.edge(from, elseB)
		b.cur = elseB
		b.stmt(s.Else)
		b.edge(b.cur, merge)
	} else {
		b.edge(from, merge)
	}
	b.cur = merge
}

// forStmt: init in the current block; a header block carries the condition
// and receives the back edge; continue targets the post block (or the header
// when there is no post).
func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	b.stmt(s.Init)
	head := b.newBlock()
	b.edge(b.cur, head)
	merge := b.newBlock()

	cont := head
	var post *cfgBlock
	if s.Post != nil {
		post = b.newBlock()
		cont = post
	}

	if s.Cond != nil {
		head.items = append(head.items, s.Cond)
		b.edge(head, merge)
	}
	body := b.newBlock()
	b.edge(head, body)

	b.targets = append(b.targets, cfgTarget{label: label, isLoop: true, brk: merge, cont: cont})
	b.cur = body
	b.stmts(s.Body.List)
	b.edge(b.cur, cont)
	if post != nil {
		b.cur = post
		b.stmt(s.Post)
		// s.Post lands as an item inside post via stmt; re-point cur in case
		// the post statement itself branched (not legal Go, but stay safe).
		b.edge(b.cur, head)
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = merge
}

// rangeStmt: the RangeStmt node itself is the header item (its X expression
// and key/value definitions are interpreted by the transfer functions).
func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock()
	b.edge(b.cur, head)
	merge := b.newBlock()

	head.items = append(head.items, s)
	b.edge(head, merge)
	body := b.newBlock()
	b.edge(head, body)

	b.targets = append(b.targets, cfgTarget{label: label, isLoop: true, brk: merge, cont: head})
	b.cur = body
	b.stmts(s.Body.List)
	b.edge(b.cur, head)
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = merge
}

// switchStmt: every clause starts from the entry state; a missing default
// adds the entry→merge fallthrough edge; `fallthrough` edges to the next
// clause body.
func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt, label string) {
	b.stmt(s.Init)
	if s.Tag != nil {
		b.item(s.Tag)
	}
	b.clauses(s.Body, label, true, nil)
}

// typeSwitchStmt mirrors switchStmt; the per-clause assign is interpreted at
// the statement entry (the declared variable is clause-scoped, but no current
// lattice tracks it, so one shared item is exact enough and keeps every
// statement in one block).
func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	b.stmt(s.Init)
	b.item(s.Assign)
	b.clauses(s.Body, label, true, nil)
}

// selectStmt: no implicit fall-through edge — select blocks until an arm
// fires. The comm statement is the first item of its clause block.
func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	b.clauses(s.Body, label, false, func(c *ast.CommClause) ast.Stmt { return c.Comm })
}

// clauses builds switch/type-switch/select clause bodies. fallsThrough
// selects the no-default entry→merge edge (switches yes, select no); comm
// extracts the CommClause statement for selects.
func (b *cfgBuilder) clauses(body *ast.BlockStmt, label string, fallsThrough bool, comm func(*ast.CommClause) ast.Stmt) {
	from := b.cur
	merge := b.newBlock()
	b.targets = append(b.targets, cfgTarget{label: label, brk: merge})

	// Pre-create the clause blocks so fallthrough can target the next one.
	clauseBlocks := make([]*cfgBlock, len(body.List))
	for i := range body.List {
		clauseBlocks[i] = b.newBlock()
		b.edge(from, clauseBlocks[i])
	}
	hasDefault := false
	for i, cs := range body.List {
		b.cur = clauseBlocks[i]
		var stmts []ast.Stmt
		switch c := cs.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				b.item(e)
			}
			stmts = c.Body
		case *ast.CommClause:
			if comm != nil {
				if c.Comm == nil {
					hasDefault = true
				} else {
					b.stmt(c.Comm)
				}
			}
			stmts = c.Body
		}
		// fallthrough must be the last statement of a clause; peel it off so
		// it can edge into the next clause block.
		ft := false
		if n := len(stmts); n > 0 {
			if br, ok := stmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				stmts, ft = stmts[:n-1], true
			}
		}
		b.stmts(stmts)
		if ft && i+1 < len(clauseBlocks) {
			b.edge(b.cur, clauseBlocks[i+1])
			b.terminate()
		} else {
			b.edge(b.cur, merge)
		}
	}
	if fallsThrough && !hasDefault {
		b.edge(from, merge)
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = merge
}

// isPanic reports whether the call is the builtin panic.
func (b *cfgBuilder) isPanic(call *ast.CallExpr) bool {
	if b.info == nil {
		return false
	}
	return builtinName(b.info, call) == "panic"
}
