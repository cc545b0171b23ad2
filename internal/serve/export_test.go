package serve

import (
	"fmt"
	"math/rand"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/obs"
	"spear/internal/resource"
	"spear/internal/sched"
)

// tinyCapacity is each machine's capacity per dimension in a tinyTrace run.
const tinyCapacity = 50

// tinyTrace draws six small map-reduce jobs from seed: two to four tasks a
// stage, runtimes of 1 to 20 slots and demands of 1 to 25 units on a
// two-dimensional cluster of tinyCapacity units.
func tinyTrace(seed int64) ([]*dag.Graph, error) {
	r := rand.New(rand.NewSource(seed))
	jobs := make([]*dag.Graph, 6)
	for j := range jobs {
		b := dag.NewBuilder(2)
		var stages [2][]dag.TaskID
		for s, stage := range []string{"map", "reduce"} {
			for i, n := 0, 2+r.Intn(3); i < n; i++ {
				stages[s] = append(stages[s], b.AddTask(fmt.Sprint(stage, "-", i), 1+r.Int63n(20),
					resource.Of(1+r.Int63n(tinyCapacity/2), 1+r.Int63n(tinyCapacity/2))))
			}
		}
		for _, m := range stages[0] {
			for _, rd := range stages[1] {
				b.AddDep(m, rd)
			}
		}
		var err error
		if jobs[j], err = b.Build(); err != nil {
			return nil, err
		}
	}
	return jobs, nil
}

// NewTiny is New over tinyTrace(cfg.Seed) instead of the paper's trace, so
// a test's runs are short.
func NewTiny(cfg Config, scheduler sched.Scheduler, reg *obs.Registry) (*Server, error) {
	jobs, err := tinyTrace(cfg.Seed)
	if err != nil {
		return nil, err
	}
	return newServer(cfg, scheduler, reg, jobs, resource.Uniform(2, tinyCapacity))
}

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
