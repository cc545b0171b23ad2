// Static call graph over every module package the runner has loaded, and the
// one walk over each function body that every graph-fed check reads. The
// walk (scan) records a body's facts once: its allocation constructs, call
// sites, global math/rand draws, wall-clock reads, unsorted map ranges,
// literal metric registrations and context polls. noalloc, determinism,
// metrics and ctxpoll (checks.go, ctxpoll.go) report from those facts and
// propagate them with the one traversal at the bottom of this file,
// callGraph.reach:
//
//   - Direct calls to package-level functions are resolved exactly.
//   - Method calls are resolved via the static receiver type (the method
//     object go/types binds at the call site).
//   - Calls through interfaces and function values cannot be resolved
//     without whole-program pointer analysis, so they are recorded as
//     dynamic sites; the noalloc check reports them as unresolvable unless
//     the site carries //spear:dyncall.
//
// Calls into the standard library are not traversed: the runtime
// AllocsPerRun gates audit their allocation behavior, and fmt (the one
// stdlib package the noalloc discipline bans outright) is recorded as an
// allocation construct directly. Function literals are folded into their
// enclosing declaration: an alloc or call inside a closure is attributed to
// the function that syntactically contains it, which over-approximates in
// the conservative direction. Package-level variable initialisers are
// scanned the same way, one fact set per package, outside the graph.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// randConstructors are the math/rand package-level functions that build
// explicit sources instead of consulting the global one; everything else at
// package level draws from the shared process-wide source.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// obsConstructors are the obs.Registry methods whose first argument is a
// metric name.
var obsConstructors = map[string]bool{"Counter": true, "Gauge": true, "Float": true, "FloatGauge": true, "Timer": true}

// allocSite is one structural allocation construct inside a function body.
type allocSite struct {
	pos  token.Pos
	what string // "make", "composite literal", "fmt.Errorf call", ...
}

// callSite is one call expression inside a function body.
type callSite struct {
	pos     token.Pos
	callee  *types.Func // resolved callee; nil for dynamic sites
	dynamic string      // non-empty description for unresolvable sites
	method  string      // bare method name for dynamic interface sites, so
	// ctxpoll can over-approximate the targets by name
	audited bool // site carries //spear:dyncall
}

// posName is a position plus the name of what was called or registered there.
type posName struct {
	pos  token.Pos
	name string
}

// bodyFacts is what one scan of a body records.
type bodyFacts struct {
	allocs    []allocSite
	calls     []callSite
	rand      []posName   // direct global math/rand draws (always nondeterministic)
	clock     []posName   // direct time.Now / time.Since reads
	mapRanges []token.Pos // range over a map not marked //spear:sorted
	metrics   []posName   // literal metric names passed to obs.Registry constructors

	// polls records a direct ctx.Err() / ctx.Done() call anywhere in the
	// body (closures included); ctxpoll propagates it over the graph.
	polls bool
}

// funcNode is one declared function or method of a module package.
type funcNode struct {
	fn   *types.Func
	mp   *modPkg
	body *ast.BlockStmt
	idx  *markerIndex // markers of the declaring file

	noalloc  bool
	slowpath bool
	timing   bool

	// Concurrency-discipline facts (concurrency.go): lockedArg is the
	// mutex field named by //spear:locked(mu) — the caller must hold
	// receiver.mu at every call site.
	lockedArg string

	bodyFacts
}

// callGraph maps every declared module function to its node.
type callGraph struct {
	nodes map[*types.Func]*funcNode

	// order lists the nodes by declaration position. Every pass iterates
	// order, never the map, so no verdict or message depends on map order.
	order []*funcNode

	// byName indexes order by bare function name: an interface call site is
	// over-approximated by every module method of that name (ctxpoll).
	byName map[string][]*funcNode

	// inits holds, per package, the facts of its package-level declarations
	// (variable initialisers, closures among them).
	inits map[*modPkg]*bodyFacts
}

// buildCallGraph constructs the graph over every module package currently
// in the cache: the analyzed packages and everything they (transitively)
// import from the module. Object identity is exact because all packages are
// type-checked by the same runner, so a callee resolved in one package is
// the same *types.Func the defining package declared.
func (r *Runner) buildCallGraph() *callGraph {
	g := &callGraph{
		nodes:  make(map[*types.Func]*funcNode),
		byName: make(map[string][]*funcNode),
		inits:  make(map[*modPkg]*bodyFacts),
	}
	for _, mp := range r.cache {
		inits := &bodyFacts{}
		g.inits[mp] = inits
		for _, file := range mp.files {
			idx := indexMarkers(r.fset, file)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					r.scan(inits, mp, decl, idx)
					continue
				}
				if fd.Body == nil {
					continue
				}
				fn, ok := mp.info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				lockedArg, _ := idx.funcArg(r.fset, fd, markerLocked)
				node := &funcNode{
					fn:        fn,
					mp:        mp,
					body:      fd.Body,
					idx:       idx,
					noalloc:   idx.onFunc(r.fset, fd, markerNoalloc),
					slowpath:  idx.onFunc(r.fset, fd, markerSlowpath),
					timing:    idx.onFunc(r.fset, fd, markerTiming),
					lockedArg: lockedArg,
				}
				r.scan(&node.bodyFacts, mp, fd.Body, idx)
				g.nodes[fn] = node
				g.order = append(g.order, node)
			}
		}
	}
	sort.Slice(g.order, func(i, j int) bool { return g.order[i].fn.Pos() < g.order[j].fn.Pos() })
	for _, node := range g.order {
		g.byName[node.fn.Name()] = append(g.byName[node.fn.Name()], node)
	}
	return g
}

// scan is the one walk over a body: it records every fact the graph-fed
// checks read.
func (r *Runner) scan(f *bodyFacts, mp *modPkg, body ast.Node, idx *markerIndex) {
	info := mp.info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			r.scanCall(f, mp, n, idx)
		case *ast.CompositeLit:
			f.allocs = append(f.allocs, allocSite{n.Pos(), "composite literal"})
		case *ast.FuncLit:
			f.allocs = append(f.allocs, allocSite{n.Pos(), "closure"})
		case *ast.DeferStmt:
			f.allocs = append(f.allocs, allocSite{n.Pos(), "defer"})
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n.X)) {
				f.allocs = append(f.allocs, allocSite{n.OpPos, "string concatenation"})
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(info.TypeOf(n.Lhs[0])) {
				f.allocs = append(f.allocs, allocSite{n.TokPos, "string concatenation"})
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil && !idx.at(r.fset, n.For, markerSorted) {
				if _, ok := t.Underlying().(*types.Map); ok {
					f.mapRanges = append(f.mapRanges, n.For)
				}
			}
		}
		return true
	})
}

// scanCall classifies one call expression into the alloc, call, rand, clock
// and metric facts.
func (r *Runner) scanCall(f *bodyFacts, mp *modPkg, call *ast.CallExpr, idx *markerIndex) {
	info := mp.info
	if name := builtinName(info, call); name != "" {
		if name == "make" || name == "new" || name == "append" {
			f.allocs = append(f.allocs, allocSite{call.Pos(), name})
		}
		return
	}
	// Type conversions are not calls.
	if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		return
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		f.calls = append(f.calls, callSite{
			pos:     call.Pos(),
			dynamic: "function value",
			audited: idx.at(r.fset, call.Pos(), markerDyncall),
		})
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		if isContextType(sig.Recv().Type()) && (fn.Name() == "Err" || fn.Name() == "Done") {
			f.polls = true
		}
		f.calls = append(f.calls, callSite{
			pos:     call.Pos(),
			dynamic: "interface method " + types.TypeString(sig.Recv().Type(), types.RelativeTo(mp.pkg)) + "." + fn.Name(),
			method:  fn.Name(),
			audited: idx.at(r.fset, call.Pos(), markerDyncall),
		})
		return
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return // error.Error and other universe-scope methods
	}
	path := pkg.Path()
	isMethod := sig != nil && sig.Recv() != nil
	if path == r.modulePath || strings.HasPrefix(path, r.modulePath+"/") {
		if isMethod && strings.HasSuffix(path, "internal/obs") && obsConstructors[fn.Name()] && recvIsRegistry(sig) {
			if name, ok := literalArg(call); ok {
				f.metrics = append(f.metrics, posName{call.Args[0].Pos(), name})
			}
		}
		f.calls = append(f.calls, callSite{pos: call.Pos(), callee: fn})
		return
	}
	// Standard-library callee: not traversed, but three packages matter to
	// the checks.
	switch {
	case path == "fmt":
		f.allocs = append(f.allocs, allocSite{call.Pos(), "fmt." + fn.Name() + " call"})
	case path == "math/rand" && !isMethod && !randConstructors[fn.Name()]:
		f.rand = append(f.rand, posName{call.Pos(), "math/rand." + fn.Name()})
	case path == "time" && !isMethod && (fn.Name() == "Now" || fn.Name() == "Since"):
		f.clock = append(f.clock, posName{call.Pos(), "time." + fn.Name()})
	}
}

// literalArg returns the call's first argument when it is a string literal.
func literalArg(call *ast.CallExpr) (string, bool) {
	if len(call.Args) == 0 {
		return "", false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	name, err := strconv.Unquote(lit.Value)
	return name, err == nil
}

// calleeFunc resolves the called function or method, unwrapping parentheses.
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

// recvIsRegistry reports whether the method's receiver is obs.Registry.
func recvIsRegistry(sig *types.Signature) bool {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// displayName renders a function for diagnostics, module-path-relative:
// "internal/nn.SoftmaxInto", "(*internal/simenv.Env).Step".
func (r *Runner) displayName(fn *types.Func) string {
	name := fn.FullName()
	name = strings.ReplaceAll(name, r.modulePath+"/", "")
	return strings.ReplaceAll(name, r.modulePath+".", "")
}

// hop is one step of the shortest call chain from a node to a seed.
type hop struct {
	next *funcNode // the neighbour one step closer to the seed; nil on a seed
	dist int       // chain length in calls; 0 on a seed
	pos  token.Pos // the call site that makes the step
}

// reach is the one transitive walk over call edges. It marks every node
// connected to a seed through edges that follow accepts and returns, per
// marked node, its next hop on a shortest chain to the nearest seed (ties go
// to the earlier call site), so diagnostics can print the chain.
//
// With fromCallers false the walk runs against the call direction: a node is
// marked when it reaches a seed through its callees ("transitively
// allocates", "transitively polls"). With fromCallers true it runs along the
// call direction: a node is marked when a seed reaches it. A resolved site
// has one target; an interface-method site fans out to every module function
// of that name, and follow decides whether such dynamic edges count.
//
// The walk is breadth-first from the seeds over g.order, so a verdict is a
// plain reachability fact — it cannot depend on where a recursive cycle is
// entered — and two runs produce identical chains.
func (g *callGraph) reach(seed func(*funcNode) bool, follow func(site *callSite, callee *funcNode) bool, fromCallers bool) map[*funcNode]hop {
	type edge struct {
		to  *funcNode
		pos token.Pos
	}
	// steps[n] lists the nodes one edge further from the seeds than n.
	steps := make(map[*funcNode][]edge)
	for _, caller := range g.order {
		for i := range caller.calls {
			site := &caller.calls[i]
			link := func(callee *funcNode) {
				if callee == nil || !follow(site, callee) {
					return
				}
				if fromCallers {
					steps[caller] = append(steps[caller], edge{callee, site.pos})
				} else {
					steps[callee] = append(steps[callee], edge{caller, site.pos})
				}
			}
			if site.callee != nil {
				link(g.nodes[site.callee])
				continue
			}
			for _, callee := range g.byName[site.method] {
				link(callee)
			}
		}
	}
	hops := make(map[*funcNode]hop)
	var frontier []*funcNode
	for _, n := range g.order {
		if seed(n) {
			hops[n] = hop{}
			frontier = append(frontier, n)
		}
	}
	for dist := 1; len(frontier) > 0; dist++ {
		var next []*funcNode
		for _, n := range frontier {
			for _, e := range steps[n] {
				h, seen := hops[e.to]
				if seen && (h.dist < dist || h.pos <= e.pos) {
					continue
				}
				if !seen {
					next = append(next, e.to)
				}
				hops[e.to] = hop{next: n, dist: dist, pos: e.pos}
			}
		}
		frontier = next
	}
	return hops
}

// via renders the chain from a marked node to its seed as the diagnostic
// suffix " via a -> b -> seed" (empty when the node is itself the seed) and
// returns the seed.
func (r *Runner) via(hops map[*funcNode]hop, n *funcNode) (string, *funcNode) {
	var names []string
	for hops[n].next != nil {
		n = hops[n].next
		names = append(names, r.displayName(n.fn))
	}
	if len(names) == 0 {
		return "", n
	}
	return " via " + strings.Join(names, " -> "), n
}
