// The guardedby held-lock interpretation: a forward dataflow over each
// function's CFG. The lattice is lockState (the set of provably-held mutexes,
// keyed by flattened lock expression) with intersection as the join, and the
// control flow comes from buildCFG, so the constructs a statement-by-statement
// walk gets wrong are handled by the graph itself:
//
//   - select arms: a lock released inside one arm does not survive the
//     merge — select without a default has no fall-through edge, and every
//     arm's exit state joins at the merge block.
//   - goto and labeled break/continue: branch targets are real edges, so the
//     state at a label is the join over its jump sources, and statements
//     reachable only through a goto are still analyzed.
//
// testdata/src/guardedby/cfgregress.go pins both.
package lint

import (
	"go/ast"
)

// guardCFG interprets function bodies over their CFGs.
type guardCFG struct {
	r     *Runner
	mp    *modPkg
	cc    *concCtx
	g     *callGraph
	diags *[]Diagnostic
}

// checkFunc seeds the held-set from //spear:locked and runs the body's CFG.
// Constructor and single-writer functions are exempt: no concurrent reader
// exists yet (or anymore) by the author's audited assertion.
func (gc *guardCFG) checkFunc(fd *ast.FuncDecl, idx *markerIndex) {
	if idx.onFunc(gc.r.fset, fd, markerInit) || idx.onFunc(gc.r.fset, fd, markerXclusive) {
		return
	}
	held := make(lockState)
	if arg, ok := idx.funcArg(gc.r.fset, fd, markerLocked); ok && arg != "" {
		if recv := receiverName(fd); recv != "" {
			held[recv+"."+arg] = true
		}
	}
	gc.runBody(fd.Body, held)
}

// runBody solves the held-lock problem over one body and reports every
// guarded access and //spear:locked call against the solved state.
func (gc *guardCFG) runBody(body *ast.BlockStmt, entry lockState) {
	cfg := buildCFG(body, gc.mp.info)
	in, reached, _ := solveForward(cfg, entry,
		func(b *cfgBlock, h lockState) lockState {
			out := cloneLocks(h)
			for _, item := range b.items {
				gc.applyItem(out, item)
			}
			return out
		},
		intersectLocks, sameLocks)
	for _, b := range cfg.blocks {
		if !reached[b.index] {
			continue
		}
		st := cloneLocks(in[b.index])
		for _, item := range b.items {
			gc.scanItem(item, st)
			gc.applyItem(st, item)
		}
	}
}

// applyItem updates the held-set for one block item. Only direct
// mu.Lock()/mu.Unlock() expression statements change it; `defer mu.Unlock()`
// is a no-op because the mutex stays held to function end.
func (gc *guardCFG) applyItem(held lockState, item ast.Node) {
	switch s := item.(type) {
	case *ast.ExprStmt:
		if target, isLock, ok := lockOp(gc.mp.info, s.X); ok {
			if isLock {
				held[target] = true
			} else {
				delete(held, target)
			}
		}
	}
}

// scanItem reports guarded-field accesses and //spear:locked calls inside
// one item against the current held-set. Function literals are interpreted
// as their own CFGs from an empty held-set: the closure may run on another
// goroutine, after the lock is gone. Lock-op expression statements and
// deferred unlocks are skipped, matching applyItem.
func (gc *guardCFG) scanItem(item ast.Node, held lockState) {
	switch s := item.(type) {
	case *ast.ExprStmt:
		if _, _, ok := lockOp(gc.mp.info, s.X); ok {
			return
		}
	case *ast.DeferStmt:
		if _, isLock, ok := lockOp(gc.mp.info, s.Call); ok && !isLock {
			return
		}
		gc.scanExprCFG(s.Call, held)
		return
	case *ast.RangeStmt:
		// Only the range operand is evaluated at the header; the body lives
		// in its own blocks.
		gc.scanExprCFG(s.X, held)
		return
	}
	gc.scanExprCFG(item, held)
}

// scanExprCFG checks every guarded-field access and //spear:locked call
// inside one expression or simple statement against the held-set.
func (gc *guardCFG) scanExprCFG(n ast.Node, held lockState) {
	ast.Inspect(n, func(child ast.Node) bool {
		switch c := child.(type) {
		case *ast.FuncLit:
			gc.runBody(c.Body, make(lockState))
			return false
		case *ast.SelectorExpr:
			gc.checkAccess(c, held)
		case *ast.CallExpr:
			gc.checkCall(c, held)
		}
		return true
	})
}

// checkAccess verifies one field selector against the held-set.
func (gc *guardCFG) checkAccess(sel *ast.SelectorExpr, held lockState) {
	v := fieldOf(gc.mp.info, sel)
	if v == nil {
		return
	}
	cf := gc.cc.fields[v]
	if cf == nil || cf.guard == "" {
		return
	}
	base := flattenExpr(sel.X)
	if base != "" && held[base+"."+cf.guard] {
		return
	}
	gc.r.diag(gc.diags, sel.Pos(), checkNameGuardedBy,
		"access to //spear:guardedby(%s) field %s without %s held on every path to it; acquire the lock, or mark the function //spear:locked(%s) if the caller holds it or //spear:xclusive if it runs single-threaded",
		cf.guard, cf.qual(), cf.guard, cf.guard)
}

// checkCall verifies a call to a //spear:locked(mu) method happens with
// receiver.mu held.
func (gc *guardCFG) checkCall(call *ast.CallExpr, held lockState) {
	fn := calleeFunc(gc.mp.info, call)
	if fn == nil {
		return
	}
	node := gc.g.nodes[fn]
	if node == nil || node.lockedArg == "" {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	base := flattenExpr(sel.X)
	if base != "" && held[base+"."+node.lockedArg] {
		return
	}
	gc.r.diag(gc.diags, call.Pos(), checkNameGuardedBy,
		"call to //spear:locked(%s) function %s without %s.%s held on every path to it",
		node.lockedArg, gc.r.displayName(fn), base, node.lockedArg)
}
