package baselines

import (
	"math/rand"

	"spear/internal/simenv"
)

// SJF is shortest-job-first: at every decision point it starts the fitting
// ready task with the smallest runtime. It ignores both dependencies beyond
// readiness and multi-resource packing.
type SJF struct{}

var _ simenv.Policy = SJF{}

// Name implements simenv.Policy.
func (SJF) Name() string { return "SJF" }

// Choose implements simenv.Policy.
func (SJF) Choose(e *simenv.Env, legal []simenv.Action, _ *rand.Rand) (simenv.Action, error) {
	g := e.Graph()
	return pickBest(legal, func(a, b simenv.Action) bool {
		ta, tb := e.VisibleTask(a.Slot()), e.VisibleTask(b.Slot())
		if ra, rb := g.Task(ta).Runtime, g.Task(tb).Runtime; ra != rb {
			return ra < rb
		}
		return ta < tb
	}), nil
}

// NewSJFScheduler returns SJF wrapped as a full scheduler.
func NewSJFScheduler() *PolicyScheduler {
	return newPolicyScheduler(SJF{}, nil, 0)
}
