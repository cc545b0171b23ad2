package baselines

import (
	"fmt"
	"math/rand"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/sched"
	"spear/internal/simenv"
)

// orderPolicy executes a priority order online: at every decision point it
// starts the fitting ready task that appears earliest in the order, and
// processes when nothing fits. Dependency and capacity constraints are
// enforced by the environment, so any priority order yields a valid
// schedule.
type orderPolicy struct {
	name string
	rank []int32 // rank[taskID] = position in the priority order
}

var _ simenv.Policy = (*orderPolicy)(nil)

// setOrder replaces the policy's priority order, reusing its rank table. The
// order must cover each of the numTasks tasks exactly once.
func (p *orderPolicy) setOrder(order []dag.TaskID, numTasks int) error {
	if len(order) != numTasks {
		return fmt.Errorf("baselines: order has %d entries for %d tasks", len(order), numTasks)
	}
	if cap(p.rank) < numTasks {
		p.rank = make([]int32, numTasks)
	}
	p.rank = p.rank[:numTasks]
	for i := range p.rank {
		p.rank[i] = -1
	}
	for pos, id := range order {
		if int(id) < 0 || int(id) >= numTasks {
			return fmt.Errorf("baselines: order contains unknown task %d", id)
		}
		if p.rank[id] != -1 {
			return fmt.Errorf("baselines: order contains task %d twice", id)
		}
		p.rank[id] = int32(pos)
	}
	return nil
}

// Name implements simenv.Policy.
func (p *orderPolicy) Name() string { return p.name }

// Choose implements simenv.Policy.
func (p *orderPolicy) Choose(e *simenv.Env, legal []simenv.Action, _ *rand.Rand) (simenv.Action, error) {
	return pickBest(legal, func(a, b simenv.Action) bool {
		return p.rank[e.VisibleTask(a.Slot())] < p.rank[e.VisibleTask(b.Slot())]
	}), nil
}

// OrderRunner executes candidate priority orders for a scheduler that
// searches over them (Graphene's eight, annealing's hundreds per job). The
// episode, the rollout context and the order policy are the runner's own and
// are reset per candidate, so a warm runner allocates only the schedules it
// is asked for. Not safe for concurrent use.
type OrderRunner struct {
	policy orderPolicy
	env    simenv.Env
	rc     *simenv.RolloutContext
}

// NewOrderRunner returns a runner whose schedules carry the given algorithm
// name.
func NewOrderRunner(name string) *OrderRunner {
	r := &OrderRunner{policy: orderPolicy{name: name}}
	r.rc = simenv.NewRolloutContext(&r.policy)
	return r
}

// Makespan executes order — every task of g exactly once — on spec under
// next-completion semantics and returns the resulting makespan.
func (r *OrderRunner) Makespan(g *dag.Graph, spec cluster.Spec, order []dag.TaskID) (int64, error) {
	if err := r.policy.setOrder(order, g.NumTasks()); err != nil {
		return 0, err
	}
	e, err := r.env.Reset(g, spec, simenv.Config{Mode: simenv.NextCompletion})
	if err != nil {
		return 0, err
	}
	makespan, err := r.rc.Rollout(e, nil)
	if err != nil {
		return 0, fmt.Errorf("policy %s: %w", r.policy.name, err)
	}
	return makespan, nil
}

// Schedule returns the schedule of the order Makespan executed last.
func (r *OrderRunner) Schedule() (*sched.Schedule, error) {
	return r.env.Schedule(r.policy.name)
}
