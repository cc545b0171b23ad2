package baselines

import (
	"fmt"
	"math/rand"

	"spear/internal/dag"
	"spear/internal/simenv"
)

// OrderPolicy executes a precomputed priority order online: at every
// decision point it starts the fitting ready task that appears earliest in
// the order, and processes when nothing fits. Dependency and capacity
// constraints are enforced by the environment, so any priority order yields
// a valid schedule.
type OrderPolicy struct {
	name string
	rank []int32 // rank[taskID] = position in the priority order
}

var _ simenv.Policy = (*OrderPolicy)(nil)

// NewOrderPolicy builds a policy from an explicit task order covering every
// task exactly once.
func NewOrderPolicy(name string, order []dag.TaskID, numTasks int) (*OrderPolicy, error) {
	if len(order) != numTasks {
		return nil, fmt.Errorf("baselines: order has %d entries for %d tasks", len(order), numTasks)
	}
	rank := make([]int32, numTasks)
	for i := range rank {
		rank[i] = -1
	}
	for pos, id := range order {
		if int(id) < 0 || int(id) >= numTasks {
			return nil, fmt.Errorf("baselines: order contains unknown task %d", id)
		}
		if rank[id] != -1 {
			return nil, fmt.Errorf("baselines: order contains task %d twice", id)
		}
		rank[id] = int32(pos)
	}
	return &OrderPolicy{name: name, rank: rank}, nil
}

// Name implements simenv.Policy.
func (p *OrderPolicy) Name() string { return p.name }

// Choose implements simenv.Policy.
func (p *OrderPolicy) Choose(e *simenv.Env, legal []simenv.Action, _ *rand.Rand) (simenv.Action, error) {
	return pickBest(legal, func(a, b simenv.Action) bool {
		return p.rank[e.VisibleTask(a.Slot())] < p.rank[e.VisibleTask(b.Slot())]
	}), nil
}
