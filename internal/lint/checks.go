package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// metricNamePattern is the naming scheme every literal metric name must
// follow: the spear_ prefix, then lower-case snake case.
var metricNamePattern = regexp.MustCompile(`^spear_[a-z0-9_]+$`)

// randConstructors are the math/rand package-level functions that build
// explicit sources instead of consulting the global one; everything else at
// package level draws from the shared process-wide source.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// obsConstructors are the Registry methods whose first argument is a metric
// name, mapped to whether the metric is a Prometheus counter (and must
// therefore end in _total).
var obsConstructors = map[string]bool{
	"Counter":    true,
	"Gauge":      false,
	"Float":      false,
	"FloatGauge": false,
	"Timer":      false,
}

// metricSite is one literal metric registration call site.
type metricSite struct {
	pos token.Pos
}

// checkPackage runs one named intraprocedural check on one loaded package.
func (r *Runner) checkPackage(mp *modPkg, check string) []Diagnostic {
	var diags []Diagnostic
	det := r.deterministic(mp.path)
	for _, file := range mp.files {
		idx := indexMarkers(r.fset, file)
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fc := funcChecker{
					r:       r,
					mp:      mp,
					idx:     idx,
					check:   check,
					det:     det,
					timing:  idx.onFunc(r.fset, d, markerTiming),
					noalloc: idx.onFunc(r.fset, d, markerNoalloc),
					diags:   &diags,
				}
				if d.Body != nil {
					fc.walk(d.Body)
				}
			default:
				// Package-level declarations (var initializers): determinism,
				// metrics and floateq still apply; there is no function to
				// carry a timing or noalloc marker.
				fc := funcChecker{r: r, mp: mp, idx: idx, check: check, det: det, diags: &diags}
				fc.walk(d)
			}
		}
	}
	return diags
}

// funcChecker walks one declaration with the flags that apply to it,
// emitting findings for exactly one check per walk so every pass can be
// timed and selected independently.
type funcChecker struct {
	r       *Runner
	mp      *modPkg
	idx     *markerIndex
	check   string // the one check this walk emits
	det     bool   // package is subject to the determinism check
	timing  bool   // enclosing function carries //spear:timing
	noalloc bool   // enclosing function carries //spear:noalloc
	diags   *[]Diagnostic
}

func (fc *funcChecker) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fc.call(n)
		case *ast.RangeStmt:
			fc.rangeStmt(n)
		case *ast.BinaryExpr:
			fc.binary(n)
		case *ast.AssignStmt:
			fc.assign(n)
		case *ast.CompositeLit:
			if fc.check == checkNameNoalloc && fc.noalloc {
				fc.r.diag(fc.diags, n.Pos(), checkNameNoalloc, "composite literal in //%s function", markerNoalloc)
			}
		case *ast.FuncLit:
			if fc.check == checkNameNoalloc && fc.noalloc {
				fc.r.diag(fc.diags, n.Pos(), checkNameNoalloc, "closure in //%s function", markerNoalloc)
			}
		case *ast.DeferStmt:
			if fc.check == checkNameNoalloc && fc.noalloc {
				fc.r.diag(fc.diags, n.Pos(), checkNameNoalloc, "defer in //%s function", markerNoalloc)
			}
		}
		return true
	})
}

// call applies the determinism, noalloc and metrics rules to one call.
func (fc *funcChecker) call(call *ast.CallExpr) {
	info := fc.mp.info
	if fc.check == checkNameNoalloc && fc.noalloc {
		if name := builtinName(info, call); name == "make" || name == "new" || name == "append" {
			fc.r.diag(fc.diags, call.Pos(), checkNameNoalloc, "%s in //%s function", name, markerNoalloc)
		}
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	pkgPath := fn.Pkg().Path()
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil

	if fc.check == checkNameDeterminism && fc.det && !isMethod {
		switch {
		case pkgPath == "math/rand" && !randConstructors[fn.Name()]:
			fc.r.diag(fc.diags, call.Pos(), checkNameDeterminism,
				"package-level math/rand.%s uses the global source; inject a seeded *rand.Rand", fn.Name())
		case pkgPath == "time" && (fn.Name() == "Now" || fn.Name() == "Since") && !fc.timing:
			fc.r.diag(fc.diags, call.Pos(), checkNameDeterminism,
				"time.%s in a deterministic package; mark the function //%s if this is a legitimate timing site", fn.Name(), markerTiming)
		}
	}
	if fc.check == checkNameNoalloc && fc.noalloc && pkgPath == "fmt" {
		fc.r.diag(fc.diags, call.Pos(), checkNameNoalloc, "fmt.%s call in //%s function", fn.Name(), markerNoalloc)
	}
	if fc.check == checkNameMetrics && isMethod && strings.HasSuffix(pkgPath, "internal/obs") && recvIsRegistry(sig) {
		if counter, ok := obsConstructors[fn.Name()]; ok {
			fc.metricName(call, fn.Name(), counter)
		}
	}
}

// metricName validates the literal first argument of a Registry constructor
// and records the site for duplicate detection.
func (fc *funcChecker) metricName(call *ast.CallExpr, method string, counter bool) {
	if len(call.Args) == 0 {
		return
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return // non-literal names are out of scope for the naming check
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	if !metricNamePattern.MatchString(name) {
		fc.r.diag(fc.diags, lit.Pos(), checkNameMetrics,
			"metric name %q does not match %s", name, metricNamePattern)
	} else if counter && !strings.HasSuffix(name, "_total") {
		fc.r.diag(fc.diags, lit.Pos(), checkNameMetrics,
			"counter %q registered via %s must end in _total", name, method)
	}
	fc.r.metricSites[name] = append(fc.r.metricSites[name], metricSite{pos: lit.Pos()})
}

// checkMetrics runs the naming walk over every analyzed package, then the
// cross-package duplicate-name rule over the sites the walk collected.
func (r *Runner) checkMetrics(p *pass) []Diagnostic {
	return append(intraproc(checkNameMetrics)(r, p), r.duplicateMetricDiags()...)
}

// duplicateMetricDiags flags metric names registered from more than one call
// site. A single shared call site (a bundle constructor invoked with many
// registries) is the supported way to share a metric; two independent source
// positions registering the same name silently aggregate and are almost
// always an accident.
func (r *Runner) duplicateMetricDiags() []Diagnostic {
	var diags []Diagnostic
	for name, sites := range r.metricSites {
		if len(sites) < 2 {
			continue
		}
		sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
		first, _, _ := r.position(sites[0].pos)
		firstLine := r.fset.Position(sites[0].pos).Line
		for _, site := range sites[1:] {
			r.diag(&diags, site.pos, checkNameMetrics,
				"metric %q already registered at %s:%d; share one call site or rename", name, first, firstLine)
		}
	}
	return diags
}

// rangeStmt flags iteration over map-typed expressions in deterministic
// packages: map order is random per iteration and silently breaks fixed-seed
// reproducibility. //spear:sorted marks loops whose body is order-insensitive
// or sorts afterwards.
func (fc *funcChecker) rangeStmt(rs *ast.RangeStmt) {
	if fc.check != checkNameDeterminism || !fc.det {
		return
	}
	t := fc.mp.info.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if fc.idx.at(fc.r.fset, rs.For, markerSorted) {
		return
	}
	fc.r.diag(fc.diags, rs.For, checkNameDeterminism,
		"range over map has nondeterministic order; sort keys or mark the statement //%s", markerSorted)
}

// binary applies the floateq rule and the noalloc string-concatenation rule.
func (fc *funcChecker) binary(be *ast.BinaryExpr) {
	switch be.Op {
	case token.EQL, token.NEQ:
		if fc.check != checkNameFloatEq {
			return
		}
		if !fc.isFloat(be.X) && !fc.isFloat(be.Y) {
			return
		}
		if fc.idx.at(fc.r.fset, be.OpPos, markerFloatEq) {
			return
		}
		fc.r.diag(fc.diags, be.OpPos, checkNameFloatEq,
			"%s on float operands; use a tolerance or mark the comparison //%s", be.Op, markerFloatEq)
	case token.ADD:
		if fc.check == checkNameNoalloc && fc.noalloc && fc.isString(be.X) {
			fc.r.diag(fc.diags, be.OpPos, checkNameNoalloc, "string concatenation in //%s function", markerNoalloc)
		}
	}
}

// assign catches += string concatenation in noalloc functions.
func (fc *funcChecker) assign(as *ast.AssignStmt) {
	if fc.check != checkNameNoalloc || !fc.noalloc || as.Tok != token.ADD_ASSIGN || len(as.Lhs) != 1 {
		return
	}
	if fc.isString(as.Lhs[0]) {
		fc.r.diag(fc.diags, as.TokPos, checkNameNoalloc, "string concatenation in //%s function", markerNoalloc)
	}
}

// isFloat reports whether the expression has floating-point type.
func (fc *funcChecker) isFloat(e ast.Expr) bool {
	t := fc.mp.info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isString reports whether the expression has string type.
func (fc *funcChecker) isString(e ast.Expr) bool {
	t := fc.mp.info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
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
