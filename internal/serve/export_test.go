package serve

import (
	"fmt"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/sched"
)

// scanCommit is how commit found a plan's offset before it packed plans from
// their profile: try clock, clock+1, ... placing the plan's tasks one by one
// and rolling them back at the first that does not fit. It survives only
// here, as the oracle commit is compared with.
func scanCommit(space *cluster.Multi, clock int64, g *dag.Graph, plan *sched.Schedule) (int64, error) {
	for t0 := clock; ; t0++ {
		ok, err := scanPlace(space, g, plan, t0)
		if err != nil {
			return 0, err
		}
		if ok {
			return t0, nil
		}
		if t0 >= space.MaxBusy() {
			return 0, fmt.Errorf("validated plan does not fit the empty cluster at %d", t0)
		}
	}
}

// scanPlace places every task of the plan at offset t0 and reports whether
// all of them fitted; if one did not, the ones before it are removed again.
func scanPlace(space *cluster.Multi, g *dag.Graph, plan *sched.Schedule, t0 int64) (bool, error) {
	for i, p := range plan.Placements {
		task := g.Task(p.Task)
		if space.Place(p.Machine, t0+p.Start, task.Demand, task.Runtime) == nil {
			continue
		}
		for _, q := range plan.Placements[:i] {
			tq := g.Task(q.Task)
			if err := space.Remove(q.Machine, t0+q.Start, tq.Demand, tq.Runtime); err != nil {
				return false, fmt.Errorf("rollback at offset %d: %w", t0, err)
			}
		}
		return false, nil
	}
	return true, nil
}
