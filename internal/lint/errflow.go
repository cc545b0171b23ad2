// Check: errflow — no error value is silently dropped.
//
// Every value of type error must be checked, returned, passed on, or
// explicitly discarded at a //spear:ignoreerr(reason) site. Unlike a
// syntactic `_ =` scan, this is a definite-use forward analysis: an error
// assigned to a variable stays "pending" until some path actually reads the
// variable, and a pending error at function exit — or one overwritten before
// any read — is a finding at the assignment that produced it. Dropped
// results are findings immediately: a call whose error result is discarded
// by an expression statement, a blank assignment slot, or a defer/go
// statement.
//
// The fact is the set of (variable, assignment position) pairs still
// pending; the join is set union, so an error unused on any path to a point
// is still pending there (definite use, not may-use). The analysis follows
// Go's own block structure instead of a control-flow graph: branches join
// their arms, loops re-run their body until the head's fact stops growing,
// and break/continue carry their fact to the statement they leave. goto is
// not followed but reported, so the check fails closed on it.
//
// Exemptions, in addition to the marker: fmt's Print/Fprint family and
// methods on strings.Builder / bytes.Buffer, whose error results exist only
// to satisfy interfaces and cannot fail.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// errEvent is one pending unchecked error: the variable holding it and the
// assignment that produced it.
type errEvent struct {
	v   *types.Var
	pos token.Pos
}

// errFact is the pending set at one point of the walk; nil means no path
// reaches the point.
type errFact map[errEvent]bool

// unionErrFact joins two facts into a fresh set, nil when both are nil.
func unionErrFact(a, b errFact) errFact {
	if a == nil && b == nil {
		return nil
	}
	out := make(errFact, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func sameErrFact(a, b errFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// checkErrflow runs the errflow analysis over every function and closure
// body of one package.
func (r *Runner) checkErrflow(mp *modPkg) []Diagnostic {
	var diags []Diagnostic
	for _, file := range mp.files {
		idx := indexMarkers(r.fset, file)
		for _, ab := range analyzedBodies(file) {
			ef := &errflow{r: r, mp: mp, idx: idx, body: ab.body, results: ab.results, diags: &diags, flagged: make(map[token.Pos]bool)}
			ef.run()
		}
	}
	return diags
}

// analyzedBody is one independently analyzed function body with its result
// list (for named error results and naked returns).
type analyzedBody struct {
	body    *ast.BlockStmt
	results *ast.FieldList
}

// analyzedBodies returns every function body of a file — declarations and
// function literals at any depth — each analyzed independently. A body's
// analysis tracks only variables declared directly in it (not in a nested
// literal), and its walk never enters a nested literal's statements, so no
// statement is analyzed twice.
func analyzedBodies(file *ast.File) []analyzedBody {
	var bodies []analyzedBody
	ast.Inspect(file, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				bodies = append(bodies, analyzedBody{body: d.Body, results: d.Type.Results})
			}
		case *ast.FuncLit:
			bodies = append(bodies, analyzedBody{body: d.Body, results: d.Type.Results})
		}
		return true
	})
	return bodies
}

// errflow analyzes one body.
type errflow struct {
	r       *Runner
	mp      *modPkg
	idx     *markerIndex
	body    *ast.BlockStmt
	results *ast.FieldList // owner function's results, for naked returns
	diags   *[]Diagnostic
	flagged map[token.Pos]bool // one finding per source position

	exit    errFact       // joined at every return and panic
	targets []*jumpTarget // enclosing loops, switches and selects, innermost last
}

// jumpTarget is one statement a break or continue can leave, with the facts
// that jump to its end and, for a loop, to its next iteration.
type jumpTarget struct {
	label     string // "" when unlabeled
	loop      bool
	brk, cont errFact
}

// run walks the body once, reporting as the facts flow, then reports every
// error still pending where the function exits.
func (ef *errflow) run() {
	end := ef.stmts(ef.body.List, make(errFact))
	for ev := range unionErrFact(ef.exit, end) {
		ef.report(ev.pos, "error assigned to %s is never checked, returned or passed on along some path; handle it or mark the assignment //spear:ignoreerr(reason)", ev.v.Name())
	}
}

// stmts walks a statement list from the non-nil fact f, which it may
// mutate, and returns the fact after the list. It stops at a return, panic,
// break, continue or goto, so unreachable code reports nothing.
func (ef *errflow) stmts(list []ast.Stmt, f errFact) errFact {
	for _, s := range list {
		if f == nil {
			break
		}
		f = ef.stmt(s, "", f)
	}
	return f
}

// stmt walks one statement; label names it as a break/continue target.
func (ef *errflow) stmt(s ast.Stmt, label string, f errFact) errFact {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		return ef.stmts(s.List, f)
	case *ast.LabeledStmt:
		return ef.stmt(s.Stmt, s.Label.Name, f)
	case *ast.IfStmt:
		f = ef.stmt(s.Init, "", f)
		ef.applyItem(f, s.Cond)
		then := ef.stmts(s.Body.List, unionErrFact(f, nil))
		return unionErrFact(then, ef.stmt(s.Else, "", f))
	case *ast.ForStmt:
		f = ef.stmt(s.Init, "", f)
		t := ef.enter(label, true)
		return ef.leave(t, ef.loop(t, f, s.Cond, s.Body, s.Post))
	case *ast.RangeStmt:
		t := ef.enter(label, true)
		return ef.leave(t, ef.loop(t, f, s, s.Body, nil))
	case *ast.SwitchStmt:
		f = ef.stmt(s.Init, "", f)
		if s.Tag != nil {
			ef.applyItem(f, s.Tag)
		}
		t := ef.enter(label, false)
		return ef.leave(t, ef.clauses(s.Body, f, true))
	case *ast.TypeSwitchStmt:
		f = ef.stmt(s.Init, "", f)
		ef.applyItem(f, s.Assign)
		t := ef.enter(label, false)
		return ef.leave(t, ef.clauses(s.Body, f, true))
	case *ast.SelectStmt:
		t := ef.enter(label, false)
		return ef.leave(t, ef.clauses(s.Body, f, false))
	case *ast.BranchStmt:
		ef.branch(s, f)
		return nil
	case *ast.ReturnStmt:
		ef.applyItem(f, s)
		ef.exit = unionErrFact(ef.exit, f)
		return nil
	case *ast.ExprStmt:
		ef.applyItem(f, s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && builtinName(ef.mp.info, call) == "panic" {
			ef.exit = unionErrFact(ef.exit, f)
			return nil
		}
	default:
		ef.applyItem(f, s)
	}
	return f
}

// enter pushes the break/continue target of a loop, switch or select.
func (ef *errflow) enter(label string, loop bool) *jumpTarget {
	t := &jumpTarget{label: label, loop: loop}
	ef.targets = append(ef.targets, t)
	return t
}

// leave pops t and returns the fact after its statement: f joined with
// every break out of it.
func (ef *errflow) leave(t *jumpTarget, f errFact) errFact {
	ef.targets = ef.targets[:len(ef.targets)-1]
	return unionErrFact(f, t.brk)
}

// loop walks a for or range statement from the entry fact f. The head's
// fact joins the entry, the body's end and every continue, each carried
// through the post statement; cond is the head's item — the condition, the
// range statement itself, or nil for a cond-less for. The returned fact
// leaves through the head (nil without cond); breaks are leave's. The body
// re-runs until the head's fact stops growing: every iteration's fact is a
// subset of the fixpoint's, so an early iteration reports nothing the
// fixpoint would not, and flagged drops the repeats.
func (ef *errflow) loop(t *jumpTarget, f errFact, cond ast.Node, body *ast.BlockStmt, post ast.Stmt) errFact {
	for {
		in := unionErrFact(f, nil)
		if cond != nil {
			ef.applyItem(in, cond)
		}
		back := unionErrFact(ef.stmts(body.List, unionErrFact(in, nil)), t.cont)
		if back != nil {
			back = ef.stmt(post, "", back)
		}
		next := unionErrFact(f, back)
		if sameErrFact(next, f) {
			if cond == nil {
				return nil
			}
			return in
		}
		f = next
	}
}

// clauses walks the clauses of a switch, type switch or select from the
// entry fact f. Every clause starts from f, and a fallthrough carries its
// clause's end fact into the next one. A switch without a default can also
// skip every clause; a select cannot, as it blocks until an arm fires.
func (ef *errflow) clauses(body *ast.BlockStmt, f errFact, isSwitch bool) errFact {
	var out, carried errFact
	skip := isSwitch
	for _, cs := range body.List {
		in := unionErrFact(f, carried)
		var list []ast.Stmt
		switch c := cs.(type) {
		case *ast.CaseClause:
			skip = skip && c.List != nil
			for _, e := range c.List {
				ef.applyItem(in, e)
			}
			list = c.Body
		case *ast.CommClause:
			in = ef.stmt(c.Comm, "", in)
			list = c.Body
		}
		carried = nil
		if n := len(list); n > 0 {
			if br, ok := list[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				carried = ef.stmts(list[:n-1], in)
				continue
			}
		}
		out = unionErrFact(out, ef.stmts(list, in))
	}
	if skip {
		out = unionErrFact(out, f)
	}
	return out
}

// branch sends f to the target of a break or continue. goto is not
// followed: it is a finding, so a function that uses it fails closed.
func (ef *errflow) branch(s *ast.BranchStmt, f errFact) {
	switch s.Tok {
	case token.GOTO:
		ef.report(s.Pos(), "errflow does not follow goto; restructure the jump as a loop, a switch or a helper function")
	case token.BREAK, token.CONTINUE:
		for i := len(ef.targets) - 1; i >= 0; i-- {
			t := ef.targets[i]
			if (s.Label != nil && s.Label.Name != t.label) || (s.Tok == token.CONTINUE && !t.loop) {
				continue
			}
			if s.Tok == token.BREAK {
				t.brk = unionErrFact(t.brk, f)
			} else {
				t.cont = unionErrFact(t.cont, f)
			}
			return
		}
	}
}

// applyItem updates the pending set for one leaf statement or guard
// expression and emits its findings. Order matters: reads clear pending
// before this item's own stores create new entries.
func (ef *errflow) applyItem(f errFact, item ast.Node) {
	switch s := item.(type) {
	case *ast.AssignStmt:
		ef.scanUses(f, toNodes(s.Rhs))
		for _, lhs := range s.Lhs {
			// Non-ident targets (m[k], s.f) evaluate their sub-expressions.
			if _, isIdent := ast.Unparen(lhs).(*ast.Ident); !isIdent {
				ef.scanUses(f, []ast.Node{lhs})
			}
		}
		ef.assign(f, s)
		return
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) == 0 {
				continue
			}
			ef.scanUses(f, toNodes(vs.Values))
			ef.declAssign(f, vs)
		}
		return
	case *ast.ExprStmt:
		ef.scanUses(f, []ast.Node{s.X})
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			ef.droppedCall(call, "result of %s is an unchecked error")
		}
		return
	case *ast.DeferStmt:
		ef.scanUses(f, []ast.Node{s.Call})
		ef.droppedCall(s.Call, "deferred call discards the error result of %s")
		return
	case *ast.GoStmt:
		ef.scanUses(f, []ast.Node{s.Call})
		ef.droppedCall(s.Call, "go statement discards the error result of %s")
		return
	case *ast.ReturnStmt:
		ef.scanUses(f, toNodes(s.Results))
		if len(s.Results) == 0 {
			// A naked return yields the named results: every tracked named
			// error result is thereby read.
			for ev := range f {
				if ef.namedResult(ev.v) {
					delete(f, ev)
				}
			}
		}
		return
	case *ast.RangeStmt:
		// Loop head: only the range operand is evaluated here; loop walks
		// the body.
		ef.scanUses(f, []ast.Node{s.X})
		return
	}
	ef.scanUses(f, []ast.Node{item})
}

func toNodes[T ast.Node](in []T) []ast.Node {
	out := make([]ast.Node, len(in))
	for i, n := range in {
		out[i] = n
	}
	return out
}

// scanUses clears pending entries for every tracked variable read inside the
// nodes. Reads inside nested function literals count — the closure observes
// the value — but their statements are otherwise analyzed by their own run.
func (ef *errflow) scanUses(f errFact, nodes []ast.Node) {
	for _, n := range nodes {
		ast.Inspect(n, func(child ast.Node) bool {
			id, ok := child.(*ast.Ident)
			if !ok {
				return true
			}
			if v, ok := ef.mp.info.Uses[id].(*types.Var); ok {
				ef.clearVar(f, v)
			}
			return true
		})
	}
}

// clearVar removes every pending entry of v.
func (ef *errflow) clearVar(f errFact, v *types.Var) {
	for ev := range f {
		if ev.v == v {
			delete(f, ev)
		}
	}
}

// assign processes the stores of one assignment statement: blank slots that
// drop an error result are findings; stores to tracked error variables
// first flag any still-pending prior value, then open a new pending entry
// when the right-hand side is a call producing an error into that slot.
func (ef *errflow) assign(f errFact, s *ast.AssignStmt) {
	resTypes, call := ef.rhsResults(s.Rhs)
	for i, lhs := range s.Lhs {
		isErr := i < len(resTypes) && isErrorType(resTypes[i])
		id, isIdent := ast.Unparen(lhs).(*ast.Ident)
		if !isIdent {
			continue
		}
		if id.Name == "_" {
			if isErr && call != nil && !ef.exemptCall(call, s.Pos()) {
				ef.report(lhs.Pos(), "error result of %s discarded with _; handle it or mark the assignment //spear:ignoreerr(reason)", ef.calleeDesc(call))
			}
			continue
		}
		v := ef.lhsVar(id)
		if v == nil || !isErrorType(v.Type()) || !ef.tracked(v) {
			continue
		}
		for ev := range f {
			if ev.v == v {
				ef.report(ev.pos, "error assigned to %s is overwritten before being checked; handle it or mark the assignment //spear:ignoreerr(reason)", v.Name())
			}
		}
		ef.clearVar(f, v)
		if isErr && call != nil && !ef.exemptCall(call, s.Pos()) {
			f[errEvent{v: v, pos: id.Pos()}] = true
		}
	}
}

// declAssign mirrors assign for `var err error = f()` declarations.
func (ef *errflow) declAssign(f errFact, vs *ast.ValueSpec) {
	resTypes, call := ef.rhsResults(vs.Values)
	for i, id := range vs.Names {
		isErr := i < len(resTypes) && isErrorType(resTypes[i])
		if id.Name == "_" {
			if isErr && call != nil && !ef.exemptCall(call, vs.Pos()) {
				ef.report(id.Pos(), "error result of %s discarded with _; handle it or mark the declaration //spear:ignoreerr(reason)", ef.calleeDesc(call))
			}
			continue
		}
		v, _ := ef.mp.info.Defs[id].(*types.Var)
		if v == nil || !isErrorType(v.Type()) || !ef.tracked(v) {
			continue
		}
		if isErr && call != nil && !ef.exemptCall(call, vs.Pos()) {
			f[errEvent{v: v, pos: id.Pos()}] = true
		}
	}
}

// rhsResults resolves the per-slot result types of an assignment or
// declaration right-hand side, and the producing call when there is exactly
// one.
func (ef *errflow) rhsResults(rhs []ast.Expr) ([]types.Type, *ast.CallExpr) {
	if len(rhs) == 1 {
		call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr)
		if !ok {
			return ef.exprTypes(rhs), nil
		}
		tv, ok := ef.mp.info.Types[rhs[0]]
		if !ok {
			return nil, nil
		}
		if tuple, ok := tv.Type.(*types.Tuple); ok {
			out := make([]types.Type, tuple.Len())
			for i := 0; i < tuple.Len(); i++ {
				out[i] = tuple.At(i).Type()
			}
			return out, call
		}
		return []types.Type{tv.Type}, call
	}
	return ef.exprTypes(rhs), nil
}

// exprTypes returns the static type of each expression (nil entries for
// untypeable ones).
func (ef *errflow) exprTypes(exprs []ast.Expr) []types.Type {
	out := make([]types.Type, len(exprs))
	for i, e := range exprs {
		if tv, ok := ef.mp.info.Types[e]; ok {
			out[i] = tv.Type
		}
	}
	return out
}

// lhsVar resolves an assignment target identifier to its variable, through
// either a definition (:=) or a use (=).
func (ef *errflow) lhsVar(id *ast.Ident) *types.Var {
	if v, ok := ef.mp.info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := ef.mp.info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// tracked reports whether the variable belongs to this body's analysis: it
// is declared directly inside the body (not in a nested function literal,
// which runs its own analysis) or is a named result of the enclosing
// function.
func (ef *errflow) tracked(v *types.Var) bool {
	if ef.namedResult(v) {
		return true
	}
	if v.Pos() < ef.body.Pos() || v.Pos() >= ef.body.End() {
		return false
	}
	return !ef.inNestedLit(v.Pos())
}

// namedResult reports whether v is a named result parameter of the function
// owning this body.
func (ef *errflow) namedResult(v *types.Var) bool {
	if ef.results == nil {
		return false
	}
	return v.Pos() >= ef.results.Pos() && v.Pos() < ef.results.End()
}

// inNestedLit reports whether the position falls inside a function literal
// nested in this body.
func (ef *errflow) inNestedLit(pos token.Pos) bool {
	nested := false
	ast.Inspect(ef.body, func(n ast.Node) bool {
		if nested {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			if pos >= lit.Body.Pos() && pos < lit.Body.End() {
				nested = true
			}
			return false
		}
		return true
	})
	return nested
}

// droppedCall flags a call whose results include an error that no one
// receives (expression statement, defer, go).
func (ef *errflow) droppedCall(call *ast.CallExpr, format string) {
	if !ef.callReturnsError(call) || ef.exemptCall(call, call.Pos()) {
		return
	}
	ef.report(call.Pos(), format+"; handle it or mark the call //spear:ignoreerr(reason)", ef.calleeDesc(call))
}

// callReturnsError reports whether any result of the call has type error.
func (ef *errflow) callReturnsError(call *ast.CallExpr) bool {
	tv, ok := ef.mp.info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

// exemptCall reports whether the call is excused: a //spear:ignoreerr marker
// at the site (with a mandatory reason), or a callee on the cannot-fail
// list (fmt Print/Fprint family, strings.Builder and bytes.Buffer methods).
func (ef *errflow) exemptCall(call *ast.CallExpr, pos token.Pos) bool {
	if reason, ok := ef.idx.argAt(ef.r.fset, pos, markerIgnoreErr); ok {
		if reason == "" {
			ef.report(pos, "//spear:ignoreerr requires a reason: //spear:ignoreerr(why the error cannot matter)")
		}
		return true
	}
	fn := calleeFunc(ef.mp.info, call)
	if fn == nil {
		return false
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" &&
		(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return true
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil {
				full := obj.Pkg().Path() + "." + obj.Name()
				if full == "strings.Builder" || full == "bytes.Buffer" {
					return true
				}
			}
		}
	}
	return false
}

// calleeDesc names the callee for a diagnostic, degrading to "call" for
// dynamic calls through function values.
func (ef *errflow) calleeDesc(call *ast.CallExpr) string {
	if fn := calleeFunc(ef.mp.info, call); fn != nil {
		return ef.r.displayName(fn)
	}
	return "call"
}

// calleeFunc resolves the called function or method, unwrapping parentheses.
// Builtins, conversions and calls through function values resolve to nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		obj = info.Uses[f.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// builtinName returns the name of the builtin being called, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// displayName renders a function for diagnostics, module-path-relative:
// "internal/nn.SoftmaxInto", "(*internal/simenv.Env).Step".
func (r *Runner) displayName(fn *types.Func) string {
	name := fn.FullName()
	name = strings.ReplaceAll(name, r.modulePath+"/", "")
	return strings.ReplaceAll(name, r.modulePath+".", "")
}

// report emits one finding per source position.
func (ef *errflow) report(pos token.Pos, format string, args ...any) {
	if ef.flagged[pos] {
		return
	}
	ef.flagged[pos] = true
	ef.r.diag(ef.diags, pos, checkNameErrflow, format, args...)
}

// isErrorType reports whether t is exactly the universe error interface (the
// deliberate scope of errflow: concrete error-ish types flow through typed
// variables the author manifestly inspects).
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
