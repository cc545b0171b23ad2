// Package lint is spear-vet: a stdlib-only static analyzer that machine-checks
// the repository's load-bearing invariants before any code runs. Every check
// outside the concurrency discipline guards a defect class that go vet, the
// tests and the race detector miss (TestMutationRows seeds one such defect
// per check into product code):
//
//   - determinism: packages on the reproducibility-critical path (MCTS, the
//     network, the simulator, ...) may not consult ambient nondeterminism —
//     no global math/rand source, no unannotated wall-clock reads, no
//     iteration over map order — directly or through a call into another
//     module package.
//   - noalloc: functions marked //spear:noalloc are the zero-allocation fast
//     paths gated at runtime by AllocsPerRun tests; the structural check
//     rejects the constructs that heap-allocate (make/new/append/composite
//     literals/closures/defer/string concatenation/fmt) in their bodies and
//     in everything they call.
//   - metrics: no metric name is registered from two different call sites.
//   - errflow and ctxpoll: no error value is dropped, and loops on the
//     ScheduleContext path poll for cancellation.
//   - atomic, guardedby and gohygiene: the concurrency discipline of the
//     lock-free search core.
//
// The analyzer uses only go/parser, go/ast, go/types and go/importer: module
// packages are resolved against go.mod by a custom importer, standard-library
// imports are type-checked from GOROOT source. No third-party dependency is
// involved, so the check can never drift from the toolchain in go.mod.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding, addressable as file:line:col.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// LoadError reports that a package could not be loaded or type-checked. It is
// distinct from findings: spear-vet exits 2 on a LoadError and 1 on findings.
type LoadError struct {
	Path string   // import path (or directory) that failed
	Errs []string // parser / type-checker messages
}

// Error implements error.
func (e *LoadError) Error() string {
	return fmt.Sprintf("loading %s: %s", e.Path, strings.Join(e.Errs, "; "))
}

// defaultDeterministic lists the module-relative packages whose fixed-seed
// reproducibility the determinism check protects. internal/anneal rides along
// with the seven packages named by the search/training path: simulated
// annealing is seeded the same way and breaks the same way. internal/serve
// joins them because byte-identical run-log replay depends on the serving
// loop never touching wall clocks or the global rand source.
var defaultDeterministic = []string{
	"internal/mcts",
	"internal/nn",
	"internal/simenv",
	"internal/dag",
	"internal/resource",
	"internal/cluster",
	"internal/drl",
	"internal/anneal",
	"internal/serve",
}

// Check names, as accepted by -check and stamped on every Diagnostic.
const (
	checkNameDeterminism = "determinism"
	checkNameNoalloc     = "noalloc"
	checkNameMetrics     = "metrics"
	checkNameAtomic      = "atomic"
	checkNameGuardedBy   = "guardedby"
	checkNameGoHygiene   = "gohygiene"
	checkNameErrflow     = "errflow"
	checkNameCtxpoll     = "ctxpoll"
)

// check is one row of the check table: everything the runner, -list, -check
// validation and the SARIF rule table know about a check.
type check struct {
	name    string
	desc    string // one line, shown by -list and as the SARIF rule text
	markers string // marker grammar the check consumes, "" when none
	graph   bool   // needs the static call graph (callgraph.go)
	conc    bool   // needs the struct-field access registry (concurrency.go)
	run     func(r *Runner, p *pass) []Diagnostic
}

// pass is what the checks of one Analyze run share: the analyzed packages
// and the two lazily built whole-program structures.
type pass struct {
	pkgs     []*modPkg
	analyzed map[*modPkg]bool
	g        *callGraph // nil until a check with graph set runs
	cc       *concCtx   // nil until a check with conc set runs
}

// checkTable lists every check in pass order: the three that report from the
// call graph's body facts (checks.go), then the concurrency-discipline passes
// (concurrency.go, guardcfg.go) and the CFG/dataflow passes (errflow.go,
// ctxpoll.go). Adding a check is adding a row, and a row earns its place
// with an entry in TestMutationRows.
var checkTable = []check{
	{name: checkNameDeterminism, desc: "deterministic packages must not read ambient randomness, the wall clock or map order, directly or through module calls",
		markers: "//spear:timing, //spear:sorted", graph: true, run: (*Runner).checkDeterminism},
	{name: checkNameNoalloc, desc: "//spear:noalloc functions and everything they call must not contain allocation constructs",
		markers: "//spear:noalloc, //spear:slowpath, //spear:dyncall", graph: true, run: (*Runner).checkNoalloc},
	{name: checkNameMetrics, desc: "each literal metric name is registered from one call site",
		graph: true, run: (*Runner).checkMetrics},
	{name: checkNameAtomic, desc: "//spear:atomic fields are accessed only via sync/atomic, and atomically-accessed fields carry the marker",
		markers: "//spear:atomic, //spear:init, //spear:xclusive", conc: true, run: (*Runner).checkAtomic},
	{name: checkNameGuardedBy, desc: "//spear:guardedby(mu) fields are reached only with mu held (CFG dataflow)",
		markers: "//spear:guardedby(mu), //spear:locked(mu), //spear:init, //spear:xclusive", graph: true, conc: true,
		run: (*Runner).checkGuardedBy},
	{name: checkNameGoHygiene, desc: "go statements in deterministic packages are joined in the spawning function",
		markers: "//spear:detached", run: perPackage((*Runner).checkGoHygiene)},
	{name: checkNameErrflow, desc: "error values are checked, returned or explicitly discarded (CFG dataflow)",
		markers: "//spear:ignoreerr(reason)", run: perPackage((*Runner).checkErrflow)},
	{name: checkNameCtxpoll, desc: "loops on ScheduleContext paths poll ctx.Err()/ctx.Done()",
		markers: "//spear:nopoll(reason)", graph: true, run: (*Runner).checkCtxpoll},
}

// perPackage lifts a one-package check into a table row's run function.
func perPackage(checkOne func(*Runner, *modPkg) []Diagnostic) func(*Runner, *pass) []Diagnostic {
	return func(r *Runner, p *pass) []Diagnostic {
		var found []Diagnostic
		for _, mp := range p.pkgs {
			found = append(found, checkOne(r, mp)...)
		}
		return found
	}
}

// AllChecks lists every check name in pass order.
var AllChecks = func() []string {
	names := make([]string, len(checkTable))
	for i, c := range checkTable {
		names[i] = c.name
	}
	return names
}()

// CheckInfo describes one check for discovery (spear-vet -list).
type CheckInfo struct {
	Name    string // check name accepted by -check
	Desc    string // one-line description
	Markers string // marker grammar the check consumes, "" when none
}

// Checks returns every check in pass order with its description and marker
// grammar, for spear-vet -list.
func Checks() []CheckInfo {
	out := make([]CheckInfo, len(checkTable))
	for i, c := range checkTable {
		out[i] = CheckInfo{Name: c.name, Desc: c.desc, Markers: c.markers}
	}
	return out
}

// Config parameterizes a run.
type Config struct {
	// Deterministic lists module-relative package paths subject to the
	// determinism check. Nil means defaultDeterministic.
	Deterministic []string

	// Checks selects which checks run, by name (see AllChecks). Nil means
	// all of them. Unknown names are rejected by NewRunner.
	Checks []string
}

// RunStats summarizes one Analyze run: how many module packages were
// type-checked (each exactly once — the runner memoizes by import path, so
// a dependency shared by every analyzed package costs one load).
type RunStats struct {
	PackagesLoaded int `json:"packages_loaded"`
}

// Runner loads and type-checks packages of one module and runs the checks.
// It caches type-checked packages, so analyzing many packages of the same
// module pays for the standard library once.
type Runner struct {
	fset       *token.FileSet
	moduleRoot string
	modulePath string
	std        types.ImporterFrom
	cache      map[string]*modPkg
	loading    map[string]bool
	loadCount  int // module packages actually type-checked (cache misses)
	cfg        Config
	enabled    map[string]bool // check name -> selected by cfg.Checks
}

// modPkg is one loaded module package: syntax, types and type info.
type modPkg struct {
	path  string
	dir   string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// NewRunner returns a runner for the module containing dir (found by walking
// up to go.mod).
func NewRunner(dir string, cfg Config) (*Runner, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	if cfg.Deterministic == nil {
		cfg.Deterministic = defaultDeterministic
	}
	enabled := make(map[string]bool)
	if cfg.Checks == nil {
		for _, c := range AllChecks {
			enabled[c] = true
		}
	} else {
		known := make(map[string]bool, len(AllChecks))
		for _, c := range AllChecks {
			known[c] = true
		}
		for _, c := range cfg.Checks {
			if !known[c] {
				return nil, fmt.Errorf("lint: unknown check %q (valid: %s)", c, strings.Join(AllChecks, ", "))
			}
			enabled[c] = true
		}
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	return &Runner{
		fset:       fset,
		moduleRoot: root,
		modulePath: modPath,
		std:        std,
		cache:      make(map[string]*modPkg),
		loading:    make(map[string]bool),
		cfg:        cfg,
		enabled:    enabled,
	}, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the module
// root directory and module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for cur := abs; ; cur = filepath.Dir(cur) {
		data, err := os.ReadFile(filepath.Join(cur, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					path = strings.TrimSpace(rest)
				}
			}
			if path == "" {
				return "", "", fmt.Errorf("lint: %s/go.mod has no module line", cur)
			}
			return cur, path, nil
		}
		if filepath.Dir(cur) == cur {
			return "", "", fmt.Errorf("lint: no go.mod above %s", abs)
		}
	}
}

// Import implements types.Importer: module-internal paths are loaded from the
// module tree, everything else (the standard library) from GOROOT source.
func (r *Runner) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == r.modulePath || strings.HasPrefix(path, r.modulePath+"/") {
		mp, err := r.load(path)
		if err != nil {
			return nil, err
		}
		return mp.pkg, nil
	}
	return r.std.ImportFrom(path, r.moduleRoot, 0)
}

// dirFor maps a module import path to its directory.
func (r *Runner) dirFor(path string) string {
	if path == r.modulePath {
		return r.moduleRoot
	}
	rel := strings.TrimPrefix(path, r.modulePath+"/")
	return filepath.Join(r.moduleRoot, filepath.FromSlash(rel))
}

// pathFor maps a directory inside the module to its import path.
func (r *Runner) pathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(r.moduleRoot, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return r.modulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, r.moduleRoot)
	}
	return r.modulePath + "/" + filepath.ToSlash(rel), nil
}

// load parses and type-checks one module package (non-test files only),
// caching the result. Test files are deliberately excluded: the invariants
// guard production code, and tests legitimately measure wall-clock time,
// compare floats and register scratch metrics.
func (r *Runner) load(path string) (*modPkg, error) {
	if mp, ok := r.cache[path]; ok {
		return mp, nil
	}
	if r.loading[path] {
		return nil, &LoadError{Path: path, Errs: []string{"import cycle"}}
	}
	r.loading[path] = true
	defer delete(r.loading, path)

	dir := r.dirFor(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, &LoadError{Path: path, Errs: []string{err.Error()}}
	}
	var files []*ast.File
	var errs []string
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(r.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		files = append(files, f)
	}
	if len(errs) > 0 {
		return nil, &LoadError{Path: path, Errs: errs}
	}
	if len(files) == 0 {
		return nil, &LoadError{Path: path, Errs: []string{"no buildable Go files"}}
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: r,
		Error:    func(err error) { errs = append(errs, err.Error()) },
	}
	pkg, _ := conf.Check(path, r.fset, files, info) //spear:ignoreerr(type errors are collected by the conf.Error callback above)
	if len(errs) > 0 {
		return nil, &LoadError{Path: path, Errs: errs}
	}
	mp := &modPkg{path: path, dir: dir, files: files, pkg: pkg, info: info}
	r.cache[path] = mp
	r.loadCount++
	return mp, nil
}

// relative returns the module-relative form of an import path.
func (r *Runner) relative(path string) string {
	if path == r.modulePath {
		return "."
	}
	return strings.TrimPrefix(path, r.modulePath+"/")
}

// deterministic reports whether the package at the import path is subject to
// the determinism check.
func (r *Runner) deterministic(path string) bool {
	rel := r.relative(path)
	for _, d := range r.cfg.Deterministic {
		if rel == d {
			return true
		}
	}
	return false
}

// AnalyzeDirs loads every directory as a package and runs the enabled
// checks, returning the combined findings sorted by position. A non-nil
// error is a load or type-check failure (spear-vet exit 2), never a finding.
func (r *Runner) AnalyzeDirs(dirs []string) ([]Diagnostic, error) {
	diags, _, err := r.Analyze(dirs)
	return diags, err
}

// Analyze is AnalyzeDirs plus run statistics: the number of module packages
// type-checked.
func (r *Runner) Analyze(dirs []string) ([]Diagnostic, RunStats, error) {
	// Load phase: every analyzed package and (transitively) its module
	// dependencies, each type-checked exactly once.
	var pkgs []*modPkg
	for _, dir := range dirs {
		path, err := r.pathFor(dir)
		if err != nil {
			return nil, RunStats{}, &LoadError{Path: dir, Errs: []string{err.Error()}}
		}
		mp, err := r.load(path)
		if err != nil {
			return nil, RunStats{}, err
		}
		pkgs = append(pkgs, mp)
	}

	// Passes run in table order. The call graph (over every module package in
	// the cache: analyzed packages and their dependencies) and the field
	// access registry are built once, just before the first enabled check
	// that needs them.
	p := &pass{pkgs: pkgs, analyzed: make(map[*modPkg]bool, len(pkgs))}
	for _, mp := range pkgs {
		p.analyzed[mp] = true
	}
	var diags []Diagnostic
	for _, c := range checkTable {
		if !r.enabled[c.name] {
			continue
		}
		if c.graph && p.g == nil {
			p.g = r.buildCallGraph()
		}
		if c.conc && p.cc == nil {
			p.cc = r.buildConcurrency(p)
		}
		diags = append(diags, c.run(r, p)...)
	}
	sortDiagnostics(diags)
	return diags, RunStats{PackagesLoaded: r.loadCount}, nil
}

// sortDiagnostics orders findings by (file, line, col, check, message) so
// two runs over the same tree print byte-identical output regardless of map
// iteration order anywhere in the passes.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// AnalyzeDirs is the one-shot entry point: build a runner rooted at the
// module containing the first directory and analyze all of them.
func AnalyzeDirs(dirs []string, cfg Config) ([]Diagnostic, error) {
	if len(dirs) == 0 {
		return nil, nil
	}
	r, err := NewRunner(dirs[0], cfg)
	if err != nil {
		return nil, err
	}
	return r.AnalyzeDirs(dirs)
}

// ExpandPatterns resolves go-tool-style package patterns ("./...", "dir",
// "dir/...") relative to base into package directories: directories holding
// at least one non-test .go file. testdata, hidden and underscore-prefixed
// directories are skipped, matching the go tool's convention.
func ExpandPatterns(base string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			root := filepath.Join(base, rest)
			err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				ok, err := hasGoFiles(p)
				if err != nil {
					return err
				}
				if ok {
					add(p)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		add(filepath.Join(base, pat))
	}
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains a non-test .go file.
func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, ent := range entries {
		name := ent.Name()
		if !ent.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true, nil
		}
	}
	return false, nil
}

// position renders a token.Pos as a module-root-relative Diagnostic location.
func (r *Runner) position(pos token.Pos) (string, int, int) {
	p := r.fset.Position(pos)
	file := p.Filename
	if rel, err := filepath.Rel(r.moduleRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return file, p.Line, p.Column
}

// diag appends a finding at pos.
func (r *Runner) diag(diags *[]Diagnostic, pos token.Pos, check, format string, args ...any) {
	file, line, col := r.position(pos)
	*diags = append(*diags, Diagnostic{
		File:    file,
		Line:    line,
		Col:     col,
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	})
}
