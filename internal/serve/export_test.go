package serve

import (
	"fmt"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/sched"
)

// scanCommit is how commit found a plan's offset before it packed plans from
// their profile: try clock, clock+1, ... placing the plan's tasks one by one
// on a copy of the grid, and keep the first copy that takes all of them. It
// survives only here, as the oracle commit is compared with.
func scanCommit(space *cluster.Multi, clock int64, g *dag.Graph, plan *sched.Schedule) (int64, error) {
	var trial *cluster.Multi
	for t0 := clock; ; t0++ {
		trial = space.CloneInto(trial)
		if placeAll(trial, g, plan, t0) {
			trial.CloneInto(space)
			return t0, nil
		}
		if t0 >= space.MaxBusy() {
			return 0, fmt.Errorf("validated plan does not fit the empty cluster at %d", t0)
		}
	}
}

// placeAll places every task of the plan at offset t0 and reports whether
// all of them fitted.
func placeAll(space *cluster.Multi, g *dag.Graph, plan *sched.Schedule, t0 int64) bool {
	for _, p := range plan.Placements {
		task := g.Task(p.Task)
		if space.Place(p.Machine, t0+p.Start, task.Demand, task.Runtime) != nil {
			return false
		}
	}
	return true
}
