// Concurrency-discipline checks over the lock-free search core. The atomic
// and guardedby passes share one registry of struct fields and their access
// sites; gohygiene is syntactic and needs neither.
//
//   - atomic: a field marked //spear:atomic may only be touched through
//     sync/atomic calls or the method sets of the sync/atomic types; a plain
//     read, write or &-escape outside a //spear:init constructor or
//     //spear:xclusive single-writer function is a finding, and mixed
//     atomic/plain access — the classic torn read — is reported with both
//     sites. The check also runs the inference direction: a field that is
//     accessed through sync/atomic anywhere, or whose type comes from
//     sync/atomic, must carry the marker, so deleting an annotation is
//     itself a finding rather than a silent loss of coverage.
//   - guardedby: a field marked //spear:guardedby(mu) may only be accessed
//     where the sibling mutex mu is held on every path — proved by a forward
//     dataflow over the function's CFG (guardcfg.go) with intersection as
//     the join, and across calls via the //spear:locked(mu) caller-holds
//     annotation on methods. A struct that opts into the discipline must
//     cover every non-synchronization field with one of the markers, so
//     removing an annotation surfaces as an uncovered-field finding instead
//     of silently dropping the guard.
//   - gohygiene: go statements in the deterministic package set must have a
//     WaitGroup/channel join reachable in the spawning function (or carry
//     //spear:detached).
//
// Like the rest of spear-vet the passes trade completeness for
// byte-identical, dependency-free diagnostics, and over-approximate in the
// conservative direction (a lock held on only one branch counts as not
// held).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// accessKind classifies one appearance of a field selector.
type accessKind int

const (
	accessRead accessKind = iota
	accessWrite
	accessEscape // &f taken outside a sync/atomic call
	accessAtomic // sync/atomic call or sync/atomic-type method
)

func (k accessKind) String() string {
	switch k {
	case accessWrite:
		return "write"
	case accessEscape:
		return "address-of escape"
	default:
		return "read"
	}
}

// concAccess is one recorded access site.
type concAccess struct {
	pos  token.Pos
	kind accessKind
}

// concField is everything the passes know about one struct field.
type concField struct {
	v      *types.Var
	owner  string  // declaring struct type name ("" when unknown)
	mp     *modPkg // declaring package (nil for lazily-discovered fields)
	pos    token.Pos
	atomic bool   // //spear:atomic
	guard  string // //spear:guardedby argument ("" when absent)
	xcl    bool   // //spear:xclusive (single-writer field)

	atomicType bool // type declared in sync/atomic

	atomicSites []token.Pos
	plainSites  []concAccess
}

// qual renders "Struct.field" for diagnostics.
func (cf *concField) qual() string {
	if cf.owner == "" {
		return cf.v.Name()
	}
	return cf.owner + "." + cf.v.Name()
}

// concStruct is one struct declaration of an analyzed package.
type concStruct struct {
	mp     *modPkg
	name   string
	pos    token.Pos
	st     *types.Struct
	fields []*concField // declaration order, one per named field
}

// concCtx is the shared substrate of the atomic and guardedby passes: the
// field registry over every loaded module package and the access sites
// observed in the analyzed ones.
type concCtx struct {
	fields   map[*types.Var]*concField
	structs  []*concStruct // analyzed packages only, declaration order
	analyzed map[*modPkg]bool
}

// buildConcurrency registers every struct field of every loaded module
// package (markers included), then scans the analyzed packages' function
// bodies for atomic and plain access sites.
func (r *Runner) buildConcurrency(p *pass) *concCtx {
	cc := &concCtx{fields: make(map[*types.Var]*concField), analyzed: p.analyzed}
	// Registry phase over the whole cache: dependencies of the analyzed
	// packages carry markers too, and object identity is exact because one
	// runner type-checked everything.
	for _, mp := range r.cache {
		r.registerStructs(cc, mp)
	}
	// Access phase over the analyzed packages only: findings belong to the
	// code the user asked about.
	for _, mp := range p.pkgs {
		for _, file := range mp.files {
			idx := indexMarkers(r.fset, file)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				exempt := idx.onFunc(r.fset, fd, markerInit) || idx.onFunc(r.fset, fd, markerXclusive)
				r.scanAccesses(cc, mp, fd.Body, exempt)
			}
		}
	}
	return cc
}

// registerStructs indexes every named struct type of one package — top-level
// and function-local — with per-field markers.
func (r *Runner) registerStructs(cc *concCtx, mp *modPkg) {
	for _, file := range mp.files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			stAST, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			tn, ok := mp.info.Defs[ts.Name].(*types.TypeName)
			if !ok {
				return true
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				return true
			}
			cs := &concStruct{mp: mp, name: ts.Name.Name, pos: ts.Pos(), st: st}
			for _, f := range stAST.Fields.List {
				guard, _ := fieldArg(f, markerGuardedBy)
				_, atomicMarked := fieldArg(f, markerAtomic)
				_, xcl := fieldArg(f, markerXclusive)
				for _, name := range f.Names {
					v, ok := mp.info.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					cf := &concField{
						v:          v,
						owner:      ts.Name.Name,
						mp:         mp,
						pos:        name.Pos(),
						atomic:     atomicMarked,
						guard:      guard,
						xcl:        xcl,
						atomicType: isSyncAtomicType(v.Type()),
					}
					cc.fields[v] = cf
					cs.fields = append(cs.fields, cf)
				}
				// Embedded fields have no Names entry; they carry no
				// markers and promote no new storage, so skip them.
			}
			if cc.analyzed[mp] {
				cc.structs = append(cc.structs, cs)
			}
			return true
		})
	}
}

// scanAccesses records, for every field selector in one function body,
// whether the access is atomic (a sync/atomic call or method) or plain
// (read/write/&-escape). Plain accesses inside exempt (//spear:init,
// //spear:xclusive) functions are legitimate by construction and are not
// recorded.
func (r *Runner) scanAccesses(cc *concCtx, mp *modPkg, body ast.Node, exempt bool) {
	info := mp.info
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		v := fieldOf(info, sel)
		if v == nil {
			return true
		}
		kind := classifyAccess(info, stack, sel)
		cf := cc.fields[v]
		if cf == nil {
			if kind != accessAtomic {
				return true // unregistered (stdlib) field, plain access: not our business
			}
			cf = &concField{v: v, pos: v.Pos(), atomicType: isSyncAtomicType(v.Type())}
			cc.fields[v] = cf
		}
		if kind == accessAtomic {
			cf.atomicSites = append(cf.atomicSites, sel.Pos())
		} else if !exempt {
			cf.plainSites = append(cf.plainSites, concAccess{sel.Pos(), kind})
		}
		return true
	})
}

// fieldOf resolves a selector to the struct field it reads, or nil.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// classifyAccess decides how one field selector is used, from its ancestor
// chain: an argument of a sync/atomic call (behind &), the receiver of a
// sync/atomic-type method, an assignment target, an escaping address, or a
// plain read.
func classifyAccess(info *types.Info, stack []ast.Node, sel *ast.SelectorExpr) accessKind {
	parent := parentSkippingParens(stack, len(stack)-1)
	switch p := parent.(type) {
	case *ast.UnaryExpr:
		if p.Op == token.AND {
			gp := parentSkippingParens(stack, indexOf(stack, p))
			if call, ok := gp.(*ast.CallExpr); ok && isSyncAtomicCall(info, call) {
				return accessAtomic
			}
			return accessEscape
		}
	case *ast.SelectorExpr:
		// x.f.Load(): the inner selector's parent selects a method of a
		// sync/atomic type.
		if p.X == sel || unparenned(p.X) == sel {
			if fn, ok := info.Uses[p.Sel].(*types.Func); ok && fromSyncAtomic(fn.Pkg()) {
				return accessAtomic
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if unparenned(lhs) == sel {
				return accessWrite
			}
		}
	case *ast.IncDecStmt:
		if unparenned(p.X) == sel {
			return accessWrite
		}
	}
	return accessRead
}

// parentSkippingParens returns the nearest ancestor of stack[i] that is not
// a ParenExpr.
func parentSkippingParens(stack []ast.Node, i int) ast.Node {
	for j := i - 1; j >= 0; j-- {
		if _, ok := stack[j].(*ast.ParenExpr); ok {
			continue
		}
		return stack[j]
	}
	return nil
}

// indexOf locates a node in the ancestor stack.
func indexOf(stack []ast.Node, n ast.Node) int {
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == n {
			return i
		}
	}
	return -1
}

// unparenned strips parens off an expression.
func unparenned(e ast.Expr) ast.Expr {
	return ast.Unparen(e)
}

// isSyncAtomicCall reports whether the call targets a package-level
// function of sync/atomic (atomic.LoadInt64, atomic.CompareAndSwapInt32...).
func isSyncAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return false
	}
	return fromSyncAtomic(fn.Pkg())
}

// fromSyncAtomic reports whether the package is sync/atomic (including the
// internal runtime/atomic alias go/types may surface).
func fromSyncAtomic(pkg *types.Package) bool {
	return pkg != nil && pkg.Path() == "sync/atomic"
}

// isSyncAtomicType reports whether the type is one of sync/atomic's named
// types (atomic.Int64, atomic.Uint64, atomic.Pointer[T], atomic.Value...).
func isSyncAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return fromSyncAtomic(named.Obj().Pkg())
}

// isSyncType reports whether the type is declared in package sync
// (Mutex, RWMutex, WaitGroup, Once...): synchronization primitives are
// exempt from the guard-coverage rule because they are the guards.
func isSyncType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync"
}

// ---------------------------------------------------------------------------
// Check 1: atomic-field discipline.

// checkAtomic emits the discipline findings: plain accesses to marked
// fields, and unmarked fields that the code already treats as atomic.
func (r *Runner) checkAtomic(p *pass) []Diagnostic {
	cc := p.cc
	var diags []Diagnostic
	for _, cf := range sortedConcFields(cc) {
		switch {
		case cf.atomic:
			for _, acc := range cf.plainSites {
				msg := fmt.Sprintf("plain %s of //spear:atomic field %s", acc.kind, cf.qual())
				if len(cf.atomicSites) > 0 {
					f, l, _ := r.position(minPos(cf.atomicSites))
					msg += fmt.Sprintf("; mixed access — the same field is accessed atomically at %s:%d, so this plain access can tear", f, l)
				}
				msg += "; use sync/atomic, or mark the enclosing function //spear:init or //spear:xclusive"
				r.diag(&diags, acc.pos, checkNameAtomic, "%s", msg)
			}
		case cf.atomicType:
			if cf.mp != nil && cc.analyzed[cf.mp] {
				r.diag(&diags, cf.pos, checkNameAtomic,
					"field %s has sync/atomic type %s but is not marked //spear:atomic",
					cf.qual(), types.TypeString(cf.v.Type(), types.RelativeTo(cf.mp.pkg)))
			}
		case len(cf.atomicSites) > 0:
			pos := cf.pos
			if cf.mp == nil || !cc.analyzed[cf.mp] {
				pos = minPos(cf.atomicSites)
			}
			f, l, _ := r.position(minPos(cf.atomicSites))
			msg := fmt.Sprintf("field %s is accessed through sync/atomic at %s:%d but is not marked //spear:atomic", cf.qual(), f, l)
			if len(cf.plainSites) > 0 {
				pf, pl, _ := r.position(cf.plainSites[0].pos)
				msg += fmt.Sprintf("; mixed access — plain %s at %s:%d can tear against it", cf.plainSites[0].kind, pf, pl)
			}
			msg += "; add the marker so every access is policed"
			r.diag(&diags, pos, checkNameAtomic, "%s", msg)
		}
	}
	return diags
}

// sortedConcFields orders the field registry by declaration position so the
// pass body iterates deterministically (the final sortDiagnostics makes the
// output order canonical regardless, but per-field site lists must not
// depend on map order).
func sortedConcFields(cc *concCtx) []*concField {
	out := make([]*concField, 0, len(cc.fields))
	for _, cf := range cc.fields {
		out = append(out, cf)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// minPos returns the smallest position of a non-empty list.
func minPos(ps []token.Pos) token.Pos {
	m := ps[0]
	for _, p := range ps[1:] {
		if p < m {
			m = p
		}
	}
	return m
}

// structFields lists a struct's fields in declaration order.
func structFields(st *types.Struct) []*types.Var {
	out := make([]*types.Var, st.NumFields())
	for i := range out {
		out[i] = st.Field(i)
	}
	return out
}

// ---------------------------------------------------------------------------
// Check 2: lock-guard discipline.

// checkGuardedBy runs three sub-passes: guard-argument validation and the
// coverage rule over struct declarations, then the per-function lock-held
// interpretation over every access and //spear:locked call site.
func (r *Runner) checkGuardedBy(p *pass) []Diagnostic {
	var diags []Diagnostic
	for _, cs := range p.cc.structs {
		r.guardStructDiags(&diags, cs)
	}
	for _, mp := range p.pkgs {
		for _, file := range mp.files {
			idx := indexMarkers(r.fset, file)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				gc := &guardCFG{r: r, mp: mp, cc: p.cc, g: p.g, diags: &diags}
				gc.checkFunc(fd, idx)
			}
		}
	}
	return diags
}

// guardStructDiags validates //spear:guardedby arguments against sibling
// mutex fields and enforces the coverage rule: once a struct opts into lock
// discipline (a guarded field, or a mutex next to any marked field), every
// non-synchronization field must be covered by a marker, so a deleted
// annotation cannot silently drop a field out of the analysis.
func (r *Runner) guardStructDiags(diags *[]Diagnostic, cs *concStruct) {
	mutexes := make(map[string]bool)
	for _, f := range structFields(cs.st) {
		if isSyncType(f.Type()) {
			mutexes[f.Name()] = true
		}
	}
	var hasGuarded, hasMarked bool
	var guardName string
	for _, cf := range cs.fields {
		if cf.guard != "" {
			hasGuarded = true
			if guardName == "" {
				guardName = cf.guard
			}
			if !mutexes[cf.guard] {
				r.diag(diags, cf.pos, checkNameGuardedBy,
					"//spear:guardedby(%s) on %s names no sibling mutex field %q", cf.guard, cf.qual(), cf.guard)
			}
		}
		if cf.guard != "" || cf.atomic || cf.xcl {
			hasMarked = true
		}
	}
	if !hasGuarded && !(hasMarked && len(mutexes) > 0) {
		return
	}
	if guardName == "" {
		for _, f := range structFields(cs.st) {
			if isSyncType(f.Type()) {
				guardName = f.Name()
				break
			}
		}
	}
	for _, cf := range cs.fields {
		if cf.guard != "" || cf.atomic || cf.xcl || isSyncType(cf.v.Type()) {
			continue
		}
		r.diag(diags, cf.pos, checkNameGuardedBy,
			"struct %s uses lock discipline but field %s is not covered — an unguarded access would be invisible to spear-vet; mark it //spear:guardedby(%s), //spear:atomic or //spear:xclusive",
			cs.name, cf.v.Name(), guardName)
	}
}

// lockState is the set of mutexes provably held at a program point, keyed by
// the flattened lock expression ("r.mu", "t.tab.mu").
type lockState map[string]bool

func cloneLocks(s lockState) lockState {
	out := make(lockState, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func intersectLocks(a, b lockState) lockState {
	out := make(lockState)
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

func sameLocks(a, b lockState) bool {
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

// receiverName returns the declared receiver identifier of a method.
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// lockOp recognizes mu.Lock / mu.RLock / mu.Unlock / mu.RUnlock on a sync
// mutex and returns the flattened lock expression.
func lockOp(info *types.Info, e ast.Expr) (target string, isLock, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		isLock = true
	case "Unlock", "RUnlock":
		isLock = false
	default:
		return "", false, false
	}
	target = flattenExpr(sel.X)
	if target == "" {
		return "", false, false
	}
	return target, isLock, true
}

// flattenExpr renders a lock or receiver expression as a dotted path
// ("r.mu", "tw.tt"), or "" when the expression is not a simple chain.
func flattenExpr(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := flattenExpr(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.StarExpr:
		return flattenExpr(x.X)
	}
	return ""
}

// ---------------------------------------------------------------------------
// Check 3: goroutine hygiene.

// checkGoHygiene enforces, inside the deterministic package set, that every
// go statement has a join (WaitGroup.Wait, channel receive, range over a
// channel, or select) reachable in the spawning function.
func (r *Runner) checkGoHygiene(mp *modPkg) []Diagnostic {
	var diags []Diagnostic
	if !r.deterministic(mp.path) {
		return diags
	}
	for _, file := range mp.files {
		idx := indexMarkers(r.fset, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || hasJoin(mp.info, fd.Body) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok && !idx.at(r.fset, g.Pos(), markerDetached) {
					r.diag(&diags, g.Pos(), checkNameGoHygiene,
						"go statement in deterministic package %s has no WaitGroup or channel join in %s; join the goroutine in the spawning function or mark the statement //spear:detached",
						r.relative(mp.path), fd.Name.Name)
				}
				return true
			})
		}
	}
	return diags
}

// hasJoin reports whether the function body syntactically contains a join
// point: sync.WaitGroup.Wait, a channel receive, a range over a channel, or
// a select statement.
func hasJoin(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch c := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(info, c); fn != nil && fn.Name() == "Wait" &&
				fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
				found = true
			}
		case *ast.UnaryExpr:
			if c.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(c.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.SelectStmt:
			found = true
		}
		return !found
	})
	return found
}
