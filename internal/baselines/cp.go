package baselines

import (
	"math/rand"

	"spear/internal/simenv"
)

// CP is the largest-critical-path-first heuristic: at every decision point
// it starts the fitting ready task with the largest b-level (longest runtime
// path to an exit), breaking ties by child count as is conventional in the
// DAG scheduling literature (paper §III-D). It is dependency-aware but
// packing-blind.
type CP struct{}

var _ simenv.Policy = CP{}

// Name implements simenv.Policy.
func (CP) Name() string { return "CP" }

// Choose implements simenv.Policy.
func (CP) Choose(e *simenv.Env, legal []simenv.Action, _ *rand.Rand) (simenv.Action, error) {
	g := e.Graph()
	return pickBest(legal, func(a, b simenv.Action) bool {
		ta, tb := e.VisibleTask(a.Slot()), e.VisibleTask(b.Slot())
		if ba, bb := g.BLevel(ta), g.BLevel(tb); ba != bb {
			return ba > bb
		}
		if ca, cb := g.NumChildren(ta), g.NumChildren(tb); ca != cb {
			return ca > cb
		}
		return ta < tb
	}), nil
}

// NewCPScheduler returns CP wrapped as a full scheduler.
func NewCPScheduler() *PolicyScheduler {
	return newPolicyScheduler(CP{}, nil, 0)
}
