// Check: ctxpoll — search loops on the ScheduleContext path stay cancellable.
//
// The serving loop's deadline discipline relies on every scheduler honoring
// context cancellation: a search loop that never polls ctx.Err()/ctx.Done()
// turns a deadline into a hang. The audit is scoped by the call graph:
//
//   - Entry points are the ScheduleContext implementations (the
//     ContextScheduler surface, matched by name so interface dispatch is
//     covered).
//   - A function is audited when it is connected to an entry point — it is
//     reachable from one, or reaches one — and its body references a
//     context.Context value. Pure kernels (nn, simenv) that search loops
//     call never see a context and are exempt without annotation.
//   - Every for/range loop of an audited function must contain a poll site:
//     a direct ctx.Err()/ctx.Done() call, or a call to a module function
//     that transitively polls. Bounded housekeeping loops that genuinely
//     need no poll carry //spear:nopoll(reason); the reason is mandatory.
//
// Dynamic (interface) call edges are over-approximated by method name, in
// both the connectivity and the transitive-poll propagation.
package lint

import (
	"go/ast"
	"go/types"
)

// checkCtxpoll audits every loop of every connected, context-referencing
// function in the analyzed packages.
func (r *Runner) checkCtxpoll(p *pass) []Diagnostic {
	g := p.g
	// Three propagations over the same edges (static calls, plus interface
	// calls over-approximated by method name): who reaches an entry point,
	// whom an entry point reaches, and who reaches a poll.
	isEntry := func(n *funcNode) bool { return n.fn.Name() == "ScheduleContext" }
	drivers := g.reach(isEntry, false)
	driven := g.reach(isEntry, true)
	// polls is keyed by function object for loopPolls' call-site lookups;
	// pollsByName is the name-level fact for interface call sites: some
	// implementation with this method name polls.
	polls := make(map[*types.Func]bool)
	pollsByName := make(map[string]bool)
	for n := range g.reach(func(n *funcNode) bool { return n.polls }, false) {
		polls[n.fn] = true
		pollsByName[n.fn.Name()] = true
	}
	var diags []Diagnostic
	for _, node := range g.order {
		if p.analyzed[node.mp] && (drivers[node] || driven[node]) && referencesContext(node) {
			r.ctxpollFunc(&diags, node, polls, pollsByName)
		}
	}
	return diags
}

// referencesContext reports whether the function's signature or body
// mentions a context.Context value.
func referencesContext(node *funcNode) bool {
	sig, ok := node.fn.Type().(*types.Signature)
	if ok {
		for i := 0; i < sig.Params().Len(); i++ {
			if isContextType(sig.Params().At(i).Type()) {
				return true
			}
		}
	}
	found := false
	ast.Inspect(node.body, func(n ast.Node) bool {
		if found {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := node.mp.info.Types[e]; ok && isContextType(tv.Type) {
			found = true
			return false
		}
		return true
	})
	return found
}

// ctxpollFunc checks every for/range loop of one audited function,
// including loops inside its closures.
func (r *Runner) ctxpollFunc(diags *[]Diagnostic, node *funcNode, polls map[*types.Func]bool, pollsByName map[string]bool) {
	ast.Inspect(node.body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
		default:
			return true
		}
		if reason, ok := node.idx.argAt(r.fset, n.Pos(), markerNopoll); ok {
			if reason == "" {
				r.diag(diags, n.Pos(), checkNameCtxpoll,
					"//spear:nopoll requires a reason: //spear:nopoll(why this loop needs no cancellation poll)")
			}
			return true
		}
		if loopPolls(node.mp, n, polls, pollsByName) {
			return true
		}
		r.diag(diags, n.Pos(), checkNameCtxpoll,
			"loop in %s is on a ScheduleContext path but never reaches a ctx.Err()/ctx.Done() poll; poll the context in the loop or mark it //spear:nopoll(reason)",
			r.displayName(node.fn))
		return true
	})
}

// loopPolls reports whether a loop (condition, post statement and body all
// count) contains a poll site: a direct ctx.Err()/ctx.Done() call or a call
// to a module function that transitively polls. Closure bodies inside the
// loop count — worker loops hand the context to the closures they spawn.
func loopPolls(mp *modPkg, loop ast.Node, polls map[*types.Func]bool, pollsByName map[string]bool) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(mp.info, call)
		if fn == nil {
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			if isContextType(sig.Recv().Type()) && (fn.Name() == "Err" || fn.Name() == "Done") {
				found = true
			} else if pollsByName[fn.Name()] {
				// Interface dispatch: some module implementation polls.
				found = true
			}
			return !found
		}
		if polls[fn] {
			found = true
			return false
		}
		return true
	})
	return found
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
