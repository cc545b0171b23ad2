// The three checks that report from the call graph's body facts
// (callgraph.go): noalloc and determinism, each a body's own facts plus
// their propagation over call edges, and metrics. A seed of a propagation is
// a function that carries the fact in its own body; callGraph.reach carries
// it upward, so recursive call cycles get the same verdict on every run.
package lint

import (
	"go/token"
	"sort"
)

// checkNoalloc verifies that every //spear:noalloc function contains no
// allocation construct and only calls functions that are themselves
// allocation-free all the way down, or that are explicitly marked
// //spear:slowpath (audited cold paths), or other //spear:noalloc functions
// (checked on their own). Calls through interfaces or function values are
// unresolvable from noalloc context and must carry //spear:dyncall.
func (r *Runner) checkNoalloc(p *pass) []Diagnostic {
	g := p.g
	// A function is dirty when its own body gives a cause, or when it
	// statically calls a dirty function that is neither noalloc nor slowpath.
	dirty := g.reach(
		func(n *funcNode) bool { _, _, ok := g.allocCause(n); return ok },
		func(site *callSite, callee *funcNode) bool {
			return site.callee != nil && !callee.noalloc && !callee.slowpath
		}, false)
	var diags []Diagnostic
	for _, node := range g.order {
		if !node.noalloc || !p.analyzed[node.mp] {
			continue
		}
		for _, a := range node.allocs {
			r.diag(&diags, a.pos, checkNameNoalloc, "%s in //%s function", a.what, markerNoalloc)
		}
		for _, site := range node.calls {
			if site.dynamic != "" {
				if !site.audited {
					r.diag(&diags, site.pos, checkNameNoalloc,
						"call through %s is unresolvable from //%s context; mark the call //%s after auditing every implementation",
						site.dynamic, markerNoalloc, markerDyncall)
				}
				continue
			}
			callee := g.nodes[site.callee]
			if callee == nil {
				// A module function without a body in the graph (e.g. an
				// assembly stub) cannot be proven clean.
				r.diag(&diags, site.pos, checkNameNoalloc,
					"calls %s, which has no analyzable body; mark it //%s if it is an audited cold path",
					r.displayName(site.callee), markerSlowpath)
				continue
			}
			if _, isDirty := dirty[callee]; !isDirty || callee.noalloc || callee.slowpath {
				continue
			}
			via, root := r.via(dirty, callee)
			what, pos, _ := g.allocCause(root)
			file, line, _ := r.position(pos)
			r.diag(&diags, site.pos, checkNameNoalloc,
				"calls %s, which is not allocation-free (%s at %s:%d%s); mark the allocating callee //%s if it is an audited cold path",
				r.displayName(site.callee), what, file, line, via, markerSlowpath)
		}
	}
	return diags
}

// allocCause reports why a function's own body keeps it from being proven
// allocation-free: a structural allocation construct, an unaudited dynamic
// call, or a call to a module function with no analyzable body.
func (g *callGraph) allocCause(n *funcNode) (what string, pos token.Pos, ok bool) {
	if len(n.allocs) > 0 {
		return n.allocs[0].what, n.allocs[0].pos, true
	}
	for _, site := range n.calls {
		switch {
		case site.dynamic != "":
			if !site.audited {
				return "unaudited call through " + site.dynamic, site.pos, true
			}
		case g.nodes[site.callee] == nil:
			return "call to a function with no analyzable body", site.pos, true
		}
	}
	return "", token.NoPos, false
}

// checkDeterminism reports, in the deterministic packages, every direct
// global math/rand draw, every wall-clock read outside a //spear:timing
// function and every range over a map not marked //spear:sorted — in
// function bodies and package-level initialisers alike — and then the
// cross-package taint: a call from a deterministic package into a
// non-deterministic module function that (transitively) draws global
// randomness or reads the wall clock. Sites whose callee is itself in a
// deterministic package are skipped: the source there is flagged directly.
func (r *Runner) checkDeterminism(p *pass) []Diagnostic {
	var diags []Diagnostic
	direct := func(f *bodyFacts, timing bool) {
		for _, s := range f.rand {
			r.diag(&diags, s.pos, checkNameDeterminism,
				"package-level %s uses the global source; inject a seeded *rand.Rand", s.name)
		}
		for _, s := range f.clock {
			if !timing {
				r.diag(&diags, s.pos, checkNameDeterminism,
					"%s in a deterministic package; mark the function //%s if this is a legitimate timing site", s.name, markerTiming)
			}
		}
		for _, pos := range f.mapRanges {
			r.diag(&diags, pos, checkNameDeterminism,
				"range over map has nondeterministic order; sort keys or mark the statement //%s", markerSorted)
		}
	}
	for _, mp := range p.pkgs {
		if r.deterministic(mp.path) {
			direct(p.g.inits[mp], false)
		}
	}
	for _, node := range p.g.order {
		if p.analyzed[node.mp] && r.deterministic(node.mp.path) {
			direct(&node.bodyFacts, node.timing)
		}
	}
	diags = append(diags, r.taintDiags(p, func(n *funcNode) []posName { return n.rand },
		false, "inject a seeded *rand.Rand instead")...)
	return append(diags, r.taintDiags(p, func(n *funcNode) []posName {
		if n.timing {
			return nil // audited timing site: not a source
		}
		return n.clock
	}, true, "mark the caller //"+markerTiming+" if this is a legitimate timing site")...)
}

// taintDiags runs one propagation for one kind of source (sources lists a
// function's direct reads) and reports the deterministic call sites it
// reaches. timingExempt suppresses the finding in //spear:timing callers.
func (r *Runner) taintDiags(p *pass, sources func(*funcNode) []posName, timingExempt bool, remedy string) []Diagnostic {
	g := p.g
	tainted := g.reach(
		func(n *funcNode) bool { return len(sources(n)) > 0 },
		func(site *callSite, _ *funcNode) bool { return site.callee != nil }, false)
	var diags []Diagnostic
	for _, node := range g.order {
		if !r.deterministic(node.mp.path) || !p.analyzed[node.mp] || (timingExempt && node.timing) {
			continue
		}
		for _, site := range node.calls {
			callee := g.nodes[site.callee] // nil for dynamic sites: out of reach for taint
			if callee == nil || r.deterministic(callee.mp.path) {
				continue
			}
			if _, isTainted := tainted[callee]; !isTainted {
				continue
			}
			via, root := r.via(tainted, callee)
			src := sources(root)[0]
			file, line, _ := r.position(src.pos)
			r.diag(&diags, site.pos, checkNameDeterminism,
				"call to %s reaches %s (%s:%d%s) from a deterministic package; %s",
				r.displayName(site.callee), src.name, file, line, via, remedy)
		}
	}
	return diags
}

// checkMetrics flags literal metric names registered from more than one call
// site of the analyzed packages. obs returns the existing metric when a name
// is registered again, so two independent source positions registering the
// same name silently aggregate into one series; a single shared call site (a
// bundle constructor invoked with many registries) is the supported way to
// share a metric.
func (r *Runner) checkMetrics(p *pass) []Diagnostic {
	sites := make(map[string][]token.Pos)
	collect := func(f *bodyFacts) {
		for _, m := range f.metrics {
			sites[m.name] = append(sites[m.name], m.pos)
		}
	}
	for _, mp := range p.pkgs {
		collect(p.g.inits[mp])
	}
	for _, node := range p.g.order {
		if p.analyzed[node.mp] {
			collect(&node.bodyFacts)
		}
	}
	var diags []Diagnostic
	for name, ps := range sites {
		if len(ps) < 2 {
			continue
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
		first, firstLine, _ := r.position(ps[0])
		for _, pos := range ps[1:] {
			r.diag(&diags, pos, checkNameMetrics,
				"metric %q already registered at %s:%d; share one call site or rename", name, first, firstLine)
		}
	}
	return diags
}
