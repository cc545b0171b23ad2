package baselines

import (
	"fmt"
	"sort"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/resource"
	"spear/internal/sched"
)

// grapheneThresholds are the troublesome-task runtime thresholds the paper
// evaluates Graphene with (§V-A): a task is troublesome at threshold f when
// its runtime is at least f times the job's maximum task runtime.
var grapheneThresholds = [...]float64{0.2, 0.4, 0.6, 0.8}

// Graphene reimplements the Graphene scheduler (Grandl et al., OSDI 2016) as
// characterized in the Spear paper (§I, §II-C, §V-A):
//
//  1. identify the troublesome tasks via a runtime threshold;
//  2. order them by descending runtime and place them virtually into an
//     empty resource-time space, both forward (from the bottom of the time
//     horizon) and backward (from the top);
//  3. derive a priority order from the virtual placement, fill in the
//     remaining tasks, and execute the order online under real dependency
//     and capacity constraints;
//  4. try every threshold with both strategies and keep the best result.
//
// Every candidate order runs on the scheduler's one OrderRunner, so like
// every sched.Scheduler a Graphene is not safe for concurrent use.
type Graphene struct {
	runner *OrderRunner
}

var _ sched.Scheduler = (*Graphene)(nil)

// NewGrapheneScheduler returns Graphene with the paper's threshold set.
func NewGrapheneScheduler() *Graphene { return &Graphene{runner: NewOrderRunner("Graphene")} }

// Name implements sched.Scheduler.
func (gr *Graphene) Name() string { return "Graphene" }

// Schedule implements sched.Scheduler. It evaluates every
// (threshold, direction) candidate order online and returns the schedule
// with the smallest makespan.
func (gr *Graphene) Schedule(g *dag.Graph, spec cluster.Spec) (*sched.Schedule, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// Virtual placement reasons about the aggregate resource-time volume;
	// the online execution below enforces real per-machine boundaries.
	capacity := spec.Total()

	var best *sched.Schedule
	for _, f := range grapheneThresholds {
		troublesome := troublesomeTasks(g, f)
		for _, backward := range []bool{false, true} {
			order, err := grapheneOrder(g, capacity, troublesome, backward)
			if err != nil {
				return nil, err
			}
			makespan, err := gr.runner.Makespan(g, spec, order)
			if err != nil {
				return nil, err
			}
			if best == nil || makespan < best.Makespan {
				if best, err = gr.runner.Schedule(); err != nil {
					return nil, err
				}
			}
		}
	}
	return best, nil
}

// troublesomeTasks returns the tasks whose runtime is at least
// threshold x max runtime, sorted by descending runtime (ties: smaller ID
// first) — the order Graphene packs them in.
func troublesomeTasks(g *dag.Graph, threshold float64) []dag.TaskID {
	cutoff := threshold * float64(g.MaxRuntime())
	var out []dag.TaskID
	for id := 0; id < g.NumTasks(); id++ {
		if float64(g.Task(dag.TaskID(id)).Runtime) >= cutoff {
			out = append(out, dag.TaskID(id))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := g.Task(out[i]).Runtime, g.Task(out[j]).Runtime
		if ri != rj {
			return ri > rj
		}
		return out[i] < out[j]
	})
	return out
}

// grapheneOrder derives a full priority order using Graphene's four-group
// partition as the Spear paper describes it (§V-B1: "after partitioning the
// DAG into four groups, the tasks in each group are greedily sorted in
// descending order by runtimes"): the troublesome tasks T as sequenced by
// virtual placement, then T's ancestors P, then T's descendants C, then the
// remaining tasks O — P, C and O each in descending-runtime order.
//
// Forward placement packs each troublesome task at its earliest feasible
// start in an empty space and sequences them by ascending start. Backward
// placement is its time-mirror: tasks are packed from the top of the
// horizon, which sequences them by descending virtual finish (the task
// pinned highest runs last).
func grapheneOrder(g *dag.Graph, capacity resource.Vector, troublesome []dag.TaskID, backward bool) ([]dag.TaskID, error) {
	space, err := cluster.NewSpace(capacity)
	if err != nil {
		return nil, err
	}
	type placed struct {
		id            dag.TaskID
		start, finish int64
	}
	placements := make([]placed, 0, len(troublesome))
	for _, id := range troublesome {
		task := g.Task(id)
		start, err := space.EarliestStart(0, task.Demand, task.Runtime)
		if err != nil {
			return nil, fmt.Errorf("graphene: virtual placement of task %d: %w", id, err)
		}
		if err := space.Place(start, task.Demand, task.Runtime); err != nil {
			return nil, fmt.Errorf("graphene: virtual placement of task %d: %w", id, err)
		}
		placements = append(placements, placed{id: id, start: start, finish: start + task.Runtime})
	}
	sort.SliceStable(placements, func(i, j int) bool {
		if backward {
			// Mirrored: the first slots of the virtual space correspond to
			// the *end* of the real horizon.
			if placements[i].finish != placements[j].finish {
				return placements[i].finish > placements[j].finish
			}
			return placements[i].start > placements[j].start
		}
		return placements[i].start < placements[j].start
	})

	order := make([]dag.TaskID, 0, g.NumTasks())
	inOrder := make([]bool, g.NumTasks())
	for _, p := range placements {
		order = append(order, p.id)
		inOrder[p.id] = true
	}

	parents := relatives(g, troublesome, inOrder, g.Pred)
	children := relatives(g, troublesome, inOrder, g.Succ)
	var others []dag.TaskID
	for id := 0; id < g.NumTasks(); id++ {
		if !inOrder[id] {
			others = append(others, dag.TaskID(id))
		}
	}
	for _, group := range [][]dag.TaskID{parents, children, others} {
		sortByRuntimeDesc(g, group)
		order = append(order, group...)
	}
	return order, nil
}

// relatives collects the transitive neighbours of the seed set along the
// given edge accessor (Pred for ancestors, Succ for descendants), skipping
// tasks already placed in the order and marking the found tasks in inOrder.
func relatives(g *dag.Graph, seeds []dag.TaskID, inOrder []bool, edges func(dag.TaskID) []dag.TaskID) []dag.TaskID {
	var out []dag.TaskID
	queue := append([]dag.TaskID(nil), seeds...)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, next := range edges(id) {
			if inOrder[next] {
				continue
			}
			inOrder[next] = true
			out = append(out, next)
			queue = append(queue, next)
		}
	}
	return out
}

// sortByRuntimeDesc orders a group by descending runtime (ties: higher
// b-level, then smaller ID) — the greedy within-group order the Spear paper
// critiques.
func sortByRuntimeDesc(g *dag.Graph, group []dag.TaskID) {
	sort.Slice(group, func(i, j int) bool {
		ri, rj := g.Task(group[i]).Runtime, g.Task(group[j]).Runtime
		if ri != rj {
			return ri > rj
		}
		bi, bj := g.BLevel(group[i]), g.BLevel(group[j])
		if bi != bj {
			return bi > bj
		}
		return group[i] < group[j]
	})
}
