// Interprocedural checks over the static call graph: transitive noalloc
// and determinism taint. Each names the functions that carry the fact in
// their own body (the seeds) and which call edges carry it upward;
// callGraph.reach does the propagation, so recursive call cycles get the
// same verdict on every run.
package lint

import "go/token"

// checkNoallocTransitive verifies that every //spear:noalloc function only
// calls functions that are themselves allocation-free all the way down, or
// that are explicitly marked //spear:slowpath (audited cold paths), or
// other //spear:noalloc functions (checked on their own). Calls through
// interfaces or function values are unresolvable from noalloc context and
// must carry //spear:dyncall.
func (r *Runner) checkNoallocTransitive(p *pass) []Diagnostic {
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
		for _, site := range node.calls {
			if site.dynamic != "" {
				if !site.audited {
					r.diag(&diags, site.pos, checkNameNoallocTrans,
						"call through %s is unresolvable from //%s context; mark the call //%s after auditing every implementation",
						site.dynamic, markerNoalloc, markerDyncall)
				}
				continue
			}
			callee := g.nodes[site.callee]
			if callee == nil {
				// A module function without a body in the graph (e.g. an
				// assembly stub) cannot be proven clean.
				r.diag(&diags, site.pos, checkNameNoallocTrans,
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
			r.diag(&diags, site.pos, checkNameNoallocTrans,
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

// checkDeterminismTaint propagates nondeterminism through the call graph:
// a function is tainted if it draws from the global math/rand source, reads
// the wall clock outside a //spear:timing function, or calls a tainted
// module function. Call sites inside deterministic packages whose callee
// lives in a non-deterministic package and is tainted are reported — the
// cross-package leaks the direct determinism check cannot see. Sites whose
// callee is itself in a deterministic package are skipped: the taint source
// there is flagged directly in that package.
func (r *Runner) checkDeterminismTaint(p *pass) []Diagnostic {
	diags := r.taintDiags(p, func(n *funcNode) []posName { return n.rand },
		false, "inject a seeded *rand.Rand instead")
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
			r.diag(&diags, site.pos, checkNameDetTaint,
				"call to %s reaches %s (%s:%d%s) from a deterministic package; %s",
				r.displayName(site.callee), src.name, file, line, via, remedy)
		}
	}
	return diags
}
