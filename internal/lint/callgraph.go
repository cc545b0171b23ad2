// Static call graph over every module package the runner has loaded, and the
// one walk over each function body that every graph-fed check reads. The
// walk (scan) records a body's facts once: its call sites, unsorted map
// ranges, literal metric registrations and context polls. determinism,
// metrics and ctxpoll (checks.go, ctxpoll.go) report from those facts, and
// ctxpoll propagates them with the one traversal at the bottom of this file,
// callGraph.reach:
//
//   - Direct calls to package-level functions are resolved exactly.
//   - Method calls are resolved via the static receiver type (the method
//     object go/types binds at the call site).
//   - Calls through interfaces are recorded by method name and fan out to
//     every module method of that name. Calls through function values
//     cannot be resolved without whole-program pointer analysis and give no
//     edge.
//
// Calls into the standard library are not traversed. Function literals are
// folded into their enclosing declaration: a call or poll inside a closure is
// attributed to the function that syntactically contains it.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// obsConstructors are the obs.Registry methods whose first argument is a
// metric name.
var obsConstructors = map[string]bool{"Counter": true, "Gauge": true, "Float": true, "FloatGauge": true, "Timer": true}

// callSite is one resolved call inside a function body: a module function,
// or, through an interface, a bare method name that ctxpoll over-approximates
// by every module method of that name.
type callSite struct {
	callee *types.Func // nil for interface sites
	method string      // interface sites only
}

// posName is a position plus the metric name registered there.
type posName struct {
	pos  token.Pos
	name string
}

// bodyFacts is what one scan of a body records.
type bodyFacts struct {
	calls     []callSite
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
	}
	for _, mp := range r.cache {
		for _, file := range mp.files {
			idx := indexMarkers(r.fset, file)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := mp.info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &funcNode{fn: fn, mp: mp, body: fd.Body, idx: idx}
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
			r.scanCall(f, mp, n)
		case *ast.RangeStmt:
			_, sorted := idx.argAt(r.fset, n.For, markerSorted)
			if t := info.TypeOf(n.X); t != nil && !sorted {
				if _, ok := t.Underlying().(*types.Map); ok {
					f.mapRanges = append(f.mapRanges, n.For)
				}
			}
		}
		return true
	})
}

// scanCall classifies one call expression into the call, poll and metric
// facts. Builtins, conversions and calls through function values resolve to
// no *types.Func and record nothing.
func (r *Runner) scanCall(f *bodyFacts, mp *modPkg, call *ast.CallExpr) {
	fn := calleeFunc(mp.info, call)
	if fn == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		if isContextType(sig.Recv().Type()) && (fn.Name() == "Err" || fn.Name() == "Done") {
			f.polls = true
		}
		f.calls = append(f.calls, callSite{method: fn.Name()})
		return
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return // universe-scope methods
	}
	path := pkg.Path()
	if path != r.modulePath && !strings.HasPrefix(path, r.modulePath+"/") {
		return // the standard library is not traversed
	}
	if sig != nil && sig.Recv() != nil && strings.HasSuffix(path, "internal/obs") && obsConstructors[fn.Name()] && recvIsRegistry(sig) {
		if name, ok := literalArg(call); ok {
			f.metrics = append(f.metrics, posName{call.Args[0].Pos(), name})
		}
	}
	f.calls = append(f.calls, callSite{callee: fn})
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

// displayName renders a function for diagnostics, module-path-relative:
// "internal/nn.SoftmaxInto", "(*internal/simenv.Env).Step".
func (r *Runner) displayName(fn *types.Func) string {
	name := fn.FullName()
	name = strings.ReplaceAll(name, r.modulePath+"/", "")
	return strings.ReplaceAll(name, r.modulePath+".", "")
}

// reach is the one transitive walk over call edges: it returns every node
// connected to a seed. With fromCallers false the walk runs against the call
// direction: a node is marked when it reaches a seed through its callees
// ("transitively polls"). With fromCallers true it runs along the call
// direction: a node is marked when a seed reaches it. A resolved site has one
// target; an interface-method site fans out to every module function of that
// name. Reachability does not depend on the walk's order, so recursive cycles
// get the same verdict on every run.
func (g *callGraph) reach(seed func(*funcNode) bool, fromCallers bool) map[*funcNode]bool {
	// steps[n] lists the nodes one edge further from the seeds than n.
	steps := make(map[*funcNode][]*funcNode)
	for _, caller := range g.order {
		for _, site := range caller.calls {
			targets := g.byName[site.method]
			if site.callee != nil {
				targets = []*funcNode{g.nodes[site.callee]}
			}
			for _, callee := range targets {
				switch {
				case callee == nil:
				case fromCallers:
					steps[caller] = append(steps[caller], callee)
				default:
					steps[callee] = append(steps[callee], caller)
				}
			}
		}
	}
	marked := make(map[*funcNode]bool)
	var stack []*funcNode
	for _, n := range g.order {
		if seed(n) {
			marked[n] = true
			stack = append(stack, n)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range steps[n] {
			if !marked[m] {
				marked[m] = true
				stack = append(stack, m)
			}
		}
	}
	return marked
}
