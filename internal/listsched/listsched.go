// Package listsched implements the classic *offline* list-scheduling family
// the paper groups as "traditional DAG scheduling algorithms" ([8][9][10]):
// tasks are ranked by a priority (HEFT's upward rank / b-level being the
// canonical choice), and each task is inserted at its earliest feasible
// start in the resource-time space at or after the moment its parents
// finish. Unlike the online policies in internal/baselines, these
// schedulers may reserve capacity at arbitrary future times and can fill
// gaps — but, like CP, they rank tasks without considering multi-resource
// packing, which is exactly the weakness the paper exploits (§II-C).
package listsched

import (
	"errors"
	"fmt"
	"time"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/sched"
)

// priority ranks tasks; higher values are scheduled earlier (ties: smaller
// task ID first).
type priority func(g *dag.Graph, id dag.TaskID) float64

// Scheduler is an offline list scheduler with insertion-based placement.
// On multi-machine specs it places each task with the earliest-finish-time
// rule (earliest feasible start across machines, ties to the lower machine
// index — classic multi-processor HEFT).
type Scheduler struct {
	name string
	prio priority
}

var _ sched.Scheduler = (*Scheduler)(nil)

// ErrNilPriority is returned by New when no priority function is given.
var ErrNilPriority = errors.New("listsched: nil priority function")

// New builds a list scheduler with a custom priority.
func New(name string, prio priority) (*Scheduler, error) {
	if prio == nil {
		return nil, ErrNilPriority
	}
	return &Scheduler{name: name, prio: prio}, nil
}

// NewHEFT returns the HEFT-style scheduler: upward rank (b-level) priority
// with insertion-based earliest-start placement.
func NewHEFT() *Scheduler {
	s, _ := New("HEFT", func(g *dag.Graph, id dag.TaskID) float64 { //spear:ignoreerr(static name and priority cannot fail validation)
		return float64(g.BLevel(id))
	})
	return s
}

// NewLPT returns longest-processing-time-first list scheduling.
func NewLPT() *Scheduler {
	s, _ := New("LPT", func(g *dag.Graph, id dag.TaskID) float64 { //spear:ignoreerr(static name and priority cannot fail validation)
		return float64(g.Task(id).Runtime)
	})
	return s
}

// NewBLoad returns a b-load-ranked list scheduler: tasks heading heavier
// resource-time paths first (summed across dimensions). It is the
// list-scheduling analogue of the paper's b-load feature (§III-D).
func NewBLoad() *Scheduler {
	s, _ := New("BLoad", func(g *dag.Graph, id dag.TaskID) float64 { //spear:ignoreerr(static name and priority cannot fail validation)
		var sum float64
		for d := 0; d < g.Dims(); d++ {
			sum += float64(g.BLoad(id, d))
		}
		return sum
	})
	return s
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return s.name }

// Schedule implements sched.Scheduler: repeatedly take the highest-priority
// task whose parents are all placed and insert it at its earliest feasible
// start at or after its parents' latest finish, on the machine chosen by
// the earliest-finish-time rule.
func (s *Scheduler) Schedule(g *dag.Graph, spec cluster.Spec) (*sched.Schedule, error) {
	began := time.Now()
	if len(spec) == 1 {
		if !g.MaxDemand().FitsWithin(spec[0].Capacity) {
			return nil, fmt.Errorf("listsched: %w: max demand %v, capacity %v",
				cluster.ErrNeverFits, g.MaxDemand(), spec[0].Capacity)
		}
	} else {
		for id := 0; id < g.NumTasks(); id++ {
			if d := g.Task(dag.TaskID(id)).Demand; !spec.Fits(d) {
				return nil, fmt.Errorf("listsched: %w: task %d demand %v fits no machine",
					cluster.ErrNeverFits, id, d)
			}
		}
	}
	space, err := cluster.NewMulti(spec)
	if err != nil {
		return nil, err
	}

	n := g.NumTasks()
	prio := make([]float64, n)
	for id := 0; id < n; id++ {
		prio[id] = s.prio(g, dag.TaskID(id))
	}

	missing := make([]int, n) // unplaced parents
	ready := make([]int64, n) // earliest start induced by placed parents
	placed := make([]bool, n)
	for id := 0; id < n; id++ {
		missing[id] = len(g.Pred(dag.TaskID(id)))
	}

	placements := make([]sched.Placement, 0, n)
	var makespan int64
	for len(placements) < n {
		best := -1
		for id := 0; id < n; id++ {
			if placed[id] || missing[id] > 0 {
				continue
			}
			if best == -1 || prio[id] > prio[best] {
				best = id
			}
		}
		if best == -1 {
			// Unreachable for a valid DAG; guard against internal bugs.
			return nil, errors.New("listsched: no placeable task (cycle?)")
		}
		task := g.Task(dag.TaskID(best))
		machine, start, err := space.EarliestStartAny(ready[best], task.Demand, task.Runtime)
		if err != nil {
			return nil, fmt.Errorf("listsched: place task %d: %w", best, err)
		}
		if err := space.Place(machine, start, task.Demand, task.Runtime); err != nil {
			return nil, fmt.Errorf("listsched: place task %d: %w", best, err)
		}
		placed[best] = true
		placements = append(placements, sched.Placement{Task: dag.TaskID(best), Start: start, Machine: machine})
		finish := start + task.Runtime
		if finish > makespan {
			makespan = finish
		}
		for _, child := range g.Succ(dag.TaskID(best)) {
			missing[child]--
			if finish > ready[child] {
				ready[child] = finish
			}
		}
	}

	format := 0
	if len(spec) > 1 {
		format = sched.FormatMulti
	}
	return &sched.Schedule{
		Format:     format,
		Algorithm:  s.name,
		Placements: placements,
		Makespan:   makespan,
		Elapsed:    time.Since(began),
	}, nil
}
