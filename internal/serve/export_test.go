package serve

import (
	"fmt"
	"math/rand"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/obs"
	"spear/internal/sched"
	"spear/internal/workload"
)

// tinyCapacity is each machine's capacity per dimension in a tinyTrace run.
const tinyCapacity = 50

// tinyTrace draws six small map-reduce jobs from seed: two to four tasks a
// stage, runtimes of 1 to 20 slots and demands of 1 to 25 units on a
// two-dimensional cluster of tinyCapacity units.
func tinyTrace(seed int64) *workload.Trace {
	r := rand.New(rand.NewSource(seed))
	trace := &workload.Trace{Capacity: []int64{tinyCapacity, tinyCapacity}}
	for j := 0; j < 6; j++ {
		job := workload.TraceJob{Name: fmt.Sprint("job-", j)}
		for _, stage := range []string{"map", "reduce"} {
			for i, n := 0, 2+r.Intn(3); i < n; i++ {
				job.Tasks = append(job.Tasks, workload.TraceTask{
					Name: fmt.Sprint(stage, "-", i), Stage: stage, Runtime: 1 + r.Int63n(20),
					Demand: []int64{1 + r.Int63n(tinyCapacity/2), 1 + r.Int63n(tinyCapacity/2)},
				})
			}
		}
		trace.Jobs = append(trace.Jobs, job)
	}
	return trace
}

// NewTiny is New over tinyTrace(cfg.Seed) instead of the paper's trace, so
// a test's runs are short.
func NewTiny(cfg Config, scheduler sched.Scheduler, reg *obs.Registry) (*Server, error) {
	return newServer(cfg, scheduler, reg, tinyTrace(cfg.Seed))
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
