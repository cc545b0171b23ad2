// The two checks that report from the call graph's body facts
// (callgraph.go) without propagating them: determinism and metrics.
package lint

import (
	"go/token"
	"sort"
)

// checkDeterminism reports, in the deterministic packages, every range over a
// map not marked //spear:sorted. Global math/rand draws and wall-clock reads
// are left to the output corpus, which every such read fails (DESIGN.md §11).
func (r *Runner) checkDeterminism(p *pass) []Diagnostic {
	var diags []Diagnostic
	for _, node := range p.g.order {
		if !p.analyzed[node.mp] || !r.deterministic(node.mp.path) {
			continue
		}
		for _, pos := range node.mapRanges {
			r.diag(&diags, pos, checkNameDeterminism,
				"range over map has nondeterministic order; sort keys or mark the statement //%s", markerSorted)
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
	for _, node := range p.g.order {
		if !p.analyzed[node.mp] {
			continue
		}
		for _, m := range node.metrics {
			sites[m.name] = append(sites[m.name], m.pos)
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
