// Check: determinism — map iteration order decides nothing in the packages
// whose fixed-seed output is pinned.
package lint

import (
	"go/ast"
	"go/types"
)

// checkDeterminism reports, in a deterministic package, every range over a
// map not marked //spear:sorted. Global math/rand draws and wall-clock reads
// are left to the output corpus, which every such read fails (DESIGN.md §11).
func (r *Runner) checkDeterminism(mp *modPkg) []Diagnostic {
	if !r.deterministic(mp.path) {
		return nil
	}
	var diags []Diagnostic
	for _, file := range mp.files {
		idx := indexMarkers(r.fset, file)
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if _, sorted := idx.argAt(r.fset, rs.For, markerSorted); sorted {
				return true
			}
			if t := mp.info.TypeOf(rs.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					r.diag(&diags, rs.For, checkNameDeterminism,
						"range over map has nondeterministic order; sort keys or mark the statement //%s", markerSorted)
				}
			}
			return true
		})
	}
	return diags
}
