// Check: shape — NN buffer dimensions agree across the Into kernel family.
//
// The zero-alloc inference path threads caller-owned buffers through
// ForwardBatchInto / ProbsBatchInto / BackwardBatchInto and the one-row
// ProbsInto; every one of those calls carries an implicit shape contract against the dimensions the
// network was constructed with. The kernels verify the contract at runtime
// (and return an error), but a mismatch written today only surfaces when that
// code path runs. This check moves the obvious cases to vet time with a
// constant-propagation dataflow over the CFG:
//
//   - sources: integer constants, `[]int{...}` literals of constants,
//     `make([]float64|[]bool, k)` with a known k, `nn.New(dims, rng)`, and
//     `net.NewScratch()`;
//   - facts join by agreement: a variable keeps a known shape only when every
//     path assigns it the same one, so no false positives from reassignment;
//   - sinks: calls to the Into family where both the network dimensions and
//     the buffer length are known — a disagreement is reported at the call
//     site. Unknown values stay silent.
//
// The nn package is recognized by import path ("<module>/internal/nn" or any
// path ending in "/nn", so fixture stubs qualify).
package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// shapeKind enumerates the lattice constructors of one tracked value.
type shapeKind int

const (
	shapeUnknown shapeKind = iota
	shapeInt               // integer with known value n
	shapeDims              // []int with known elements dims
	shapeLen               // slice with known length n
	shapeNet               // *nn.Network constructed with dims
	shapeScratch           // *nn.Scratch built from a network with dims
)

// shapeVal is one abstract value. Values are immutable: dims is never
// mutated after construction.
type shapeVal struct {
	kind shapeKind
	n    int
	dims []int
}

func sameShapeVal(a, b shapeVal) bool {
	if a.kind != b.kind || a.n != b.n || len(a.dims) != len(b.dims) {
		return false
	}
	for i := range a.dims {
		if a.dims[i] != b.dims[i] {
			return false
		}
	}
	return true
}

// shapeFact maps variables to known abstract values; absence means unknown.
type shapeFact map[*types.Var]shapeVal

func cloneShapeFact(f shapeFact) shapeFact {
	out := make(shapeFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// joinShapeFact keeps only entries both paths agree on.
func joinShapeFact(a, b shapeFact) shapeFact {
	out := make(shapeFact)
	for k, v := range a {
		if w, ok := b[k]; ok && sameShapeVal(v, w) {
			out[k] = v
		}
	}
	return out
}

func sameShapeFact(a, b shapeFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || !sameShapeVal(v, w) {
			return false
		}
	}
	return true
}

// checkShape runs the dimension analysis over every function and closure
// body of one package.
func (r *Runner) checkShape(mp *modPkg) []Diagnostic {
	var diags []Diagnostic
	for _, file := range mp.files {
		for _, ab := range analyzedBodies(file) {
			sc := &shapeChecker{r: r, mp: mp, body: ab.body, diags: &diags}
			sc.run()
		}
	}
	return diags
}

// shapeChecker analyzes one body.
type shapeChecker struct {
	r     *Runner
	mp    *modPkg
	body  *ast.BlockStmt
	diags *[]Diagnostic
}

func (sc *shapeChecker) run() {
	cfg := buildCFG(sc.body, sc.mp.info)
	in, reached, _ := solveForward(cfg, make(shapeFact),
		func(b *cfgBlock, f shapeFact) shapeFact {
			out := cloneShapeFact(f)
			for _, item := range b.items {
				sc.applyItem(out, item)
			}
			return out
		},
		joinShapeFact, sameShapeFact)
	for _, b := range cfg.blocks {
		if !reached[b.index] {
			continue
		}
		st := cloneShapeFact(in[b.index])
		for _, item := range b.items {
			sc.checkItem(st, item)
			sc.applyItem(st, item)
		}
	}
}

// applyItem updates the fact for one block item.
func (sc *shapeChecker) applyItem(f shapeFact, item ast.Node) {
	switch s := item.(type) {
	case *ast.AssignStmt:
		vals := sc.rhsVals(f, s.Rhs, len(s.Lhs))
		for i, lhs := range s.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			v := sc.lhsVar(id)
			if v == nil {
				continue
			}
			val := shapeVal{}
			if i < len(vals) {
				val = vals[i]
			}
			if val.kind == shapeUnknown {
				delete(f, v)
			} else {
				f[v] = val
			}
		}
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
			vals := sc.rhsVals(f, vs.Values, len(vs.Names))
			for i, id := range vs.Names {
				v, _ := sc.mp.info.Defs[id].(*types.Var)
				if v == nil {
					continue
				}
				if i < len(vals) && vals[i].kind != shapeUnknown {
					f[v] = vals[i]
				}
			}
		}
	case *ast.RangeStmt:
		// Loop variables take unknown values each iteration.
		for _, e := range []ast.Expr{s.Key, s.Value} {
			if e == nil {
				continue
			}
			if id, ok := ast.Unparen(e).(*ast.Ident); ok {
				if v := sc.lhsVar(id); v != nil {
					delete(f, v)
				}
			}
		}
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(s.X).(*ast.Ident); ok {
			if v := sc.lhsVar(id); v != nil {
				delete(f, v)
			}
		}
	}
}

// rhsVals evaluates a right-hand side into per-slot abstract values. A
// single multi-result call spreads over the slots (only nn.New produces a
// tracked first slot).
func (sc *shapeChecker) rhsVals(f shapeFact, rhs []ast.Expr, slots int) []shapeVal {
	if len(rhs) == 1 && slots > 1 {
		out := make([]shapeVal, slots)
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			out[0] = sc.evalCall(f, call)
		}
		return out
	}
	out := make([]shapeVal, len(rhs))
	for i, e := range rhs {
		out[i] = sc.eval(f, e)
	}
	return out
}

// lhsVar resolves an assignment target identifier to its variable.
func (sc *shapeChecker) lhsVar(id *ast.Ident) *types.Var {
	if v, ok := sc.mp.info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := sc.mp.info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// eval computes the abstract value of one expression under the fact.
func (sc *shapeChecker) eval(f shapeFact, e ast.Expr) shapeVal {
	e = ast.Unparen(e)
	if tv, ok := sc.mp.info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
		if n, ok := constant.Int64Val(tv.Value); ok {
			return shapeVal{kind: shapeInt, n: int(n)}
		}
	}
	switch x := e.(type) {
	case *ast.Ident:
		if v, ok := sc.mp.info.Uses[x].(*types.Var); ok {
			return f[v]
		}
	case *ast.CompositeLit:
		return sc.evalComposite(f, x)
	case *ast.CallExpr:
		return sc.evalCall(f, x)
	case *ast.BinaryExpr:
		a, b := sc.eval(f, x.X), sc.eval(f, x.Y)
		if a.kind == shapeInt && b.kind == shapeInt {
			switch x.Op {
			case token.MUL:
				return shapeVal{kind: shapeInt, n: a.n * b.n}
			case token.ADD:
				return shapeVal{kind: shapeInt, n: a.n + b.n}
			case token.SUB:
				return shapeVal{kind: shapeInt, n: a.n - b.n}
			}
		}
	}
	return shapeVal{}
}

// evalComposite recognizes []int{...} literals of known ints.
func (sc *shapeChecker) evalComposite(f shapeFact, lit *ast.CompositeLit) shapeVal {
	tv, ok := sc.mp.info.Types[lit]
	if !ok {
		return shapeVal{}
	}
	slice, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return shapeVal{}
	}
	basic, ok := slice.Elem().Underlying().(*types.Basic)
	if !ok || basic.Kind() != types.Int {
		return shapeVal{}
	}
	dims := make([]int, 0, len(lit.Elts))
	for _, elt := range lit.Elts {
		ev := sc.eval(f, elt)
		if ev.kind != shapeInt {
			return shapeVal{}
		}
		dims = append(dims, ev.n)
	}
	return shapeVal{kind: shapeDims, dims: dims}
}

// evalCall recognizes the tracked producers: make, len, nn.New, NewScratch.
func (sc *shapeChecker) evalCall(f shapeFact, call *ast.CallExpr) shapeVal {
	info := sc.mp.info
	switch builtinName(info, call) {
	case "make":
		if len(call.Args) >= 2 {
			if ln := sc.eval(f, call.Args[1]); ln.kind == shapeInt {
				return shapeVal{kind: shapeLen, n: ln.n}
			}
		}
		return shapeVal{}
	case "len":
		if len(call.Args) == 1 {
			switch v := sc.eval(f, call.Args[0]); v.kind {
			case shapeLen:
				return shapeVal{kind: shapeInt, n: v.n}
			case shapeDims:
				return shapeVal{kind: shapeInt, n: len(v.dims)}
			}
		}
		return shapeVal{}
	case "":
	default:
		return shapeVal{}
	}
	fn := calleeFunc(info, call)
	if fn == nil || !sc.isNNFunc(fn) {
		return shapeVal{}
	}
	switch fn.Name() {
	case "New":
		if len(call.Args) >= 1 {
			if dims := sc.eval(f, call.Args[0]); dims.kind == shapeDims {
				return shapeVal{kind: shapeNet, dims: dims.dims}
			}
		}
	case "NewScratch":
		if recv := sc.receiverVal(f, call); recv.kind == shapeNet {
			return shapeVal{kind: shapeScratch, dims: recv.dims}
		}
	}
	return shapeVal{}
}

// receiverVal evaluates the receiver expression of a method call.
func (sc *shapeChecker) receiverVal(f shapeFact, call *ast.CallExpr) shapeVal {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return shapeVal{}
	}
	return sc.eval(f, sel.X)
}

// isNNFunc reports whether the function belongs to the nn package.
func (sc *shapeChecker) isNNFunc(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == sc.r.modulePath+"/internal/nn" || strings.HasSuffix(path, "/nn")
}

// checkItem verifies every Into-family call inside one item against the
// current fact. Nested function literals are skipped — they are analyzed as
// their own bodies — and a range header only evaluates its operand.
func (sc *shapeChecker) checkItem(f shapeFact, item ast.Node) {
	n := item
	if rs, ok := item.(*ast.RangeStmt); ok {
		n = rs.X
	}
	ast.Inspect(n, func(child ast.Node) bool {
		switch c := child.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			sc.checkCall(f, c)
		}
		return true
	})
}

// checkCall verifies one call against the shape contracts of the Into
// family.
func (sc *shapeChecker) checkCall(f shapeFact, call *ast.CallExpr) {
	fn := calleeFunc(sc.mp.info, call)
	if fn == nil || !sc.isNNFunc(fn) {
		return
	}
	net := sc.receiverVal(f, call)
	arg := func(i int) shapeVal {
		if i >= len(call.Args) {
			return shapeVal{}
		}
		return sc.eval(f, call.Args[i])
	}
	if net.kind != shapeNet || len(net.dims) < 2 {
		return
	}
	inDim := net.dims[0]
	outDim := net.dims[len(net.dims)-1]
	name := fn.Name()

	checkLen := func(v shapeVal, want int, what, dim string) {
		if v.kind == shapeLen && v.n != want {
			sc.r.diag(sc.diags, call.Pos(), checkNameShape,
				"nn shape mismatch in %s: %s has length %d but the network %s is %d (dims %v)",
				name, what, v.n, dim, want, net.dims)
		}
	}
	checkScratch := func(v shapeVal) {
		if v.kind == shapeScratch && !sameShapeVal(v, shapeVal{kind: shapeScratch, dims: net.dims}) {
			sc.r.diag(sc.diags, call.Pos(), checkNameShape,
				"nn shape mismatch in %s: scratch was built for dims %v but the receiver network has dims %v",
				name, v.dims, net.dims)
		}
	}

	switch name {
	case "ProbsInto":
		checkScratch(arg(0))
		checkLen(arg(1), inDim, "input x", "input dimension")
		checkLen(arg(2), outDim, "mask", "output dimension")
	case "ForwardBatchInto":
		checkScratch(arg(0))
		if rows := arg(2); rows.kind == shapeInt {
			checkLen(arg(1), rows.n*inDim, "batch input x", "rows×input size")
		}
	case "ProbsBatchInto":
		checkScratch(arg(0))
		if rows := arg(2); rows.kind == shapeInt {
			checkLen(arg(1), rows.n*inDim, "batch input x", "rows×input size")
			checkLen(arg(3), rows.n*outDim, "batch masks", "rows×output size")
		}
	case "BackwardBatchInto":
		checkScratch(arg(0))
		if rows := arg(2); rows.kind == shapeInt {
			checkLen(arg(1), rows.n*outDim, "batch dLogits", "rows×output size")
		}
	}
}
