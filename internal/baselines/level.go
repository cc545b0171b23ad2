package baselines

import (
	"math/rand"

	"spear/internal/dag"
	"spear/internal/simenv"
)

// LevelByLevel schedules the DAG strictly level by level, as the schedulers
// the paper's related work describes ("These approaches schedule the tasks
// in a DAG level by level, which will naturally result in a sub-optimal
// performance", §VI): a ready task is started only when no task from an
// earlier level is still waiting or running, so levels never overlap beyond
// what dependencies already force. Within a level, longer tasks go first.
type LevelByLevel struct{}

var _ simenv.Policy = LevelByLevel{}

// Name implements simenv.Policy.
func (LevelByLevel) Name() string { return "LevelByLevel" }

// Choose implements simenv.Policy.
func (LevelByLevel) Choose(e *simenv.Env, legal []simenv.Action, _ *rand.Rand) (simenv.Action, error) {
	g := e.Graph()
	levels := g.Levels()

	// The current level is the minimum level among *unfinished* tasks
	// anywhere in the graph: deeper levels wait until every earlier level
	// has completely drained, even when they are ready and would fit.
	minLevel := -1
	for id := 0; id < g.NumTasks(); id++ {
		tid := dag.TaskID(id)
		if e.TaskDone(tid) {
			continue
		}
		if minLevel == -1 || levels[tid] < minLevel {
			minLevel = levels[tid]
		}
	}

	best := simenv.Process
	for _, a := range legal {
		if a == simenv.Process {
			continue
		}
		id := e.VisibleTask(a.Slot())
		if levels[id] != minLevel {
			continue
		}
		if best == simenv.Process {
			best = a
			continue
		}
		ra, rb := g.Task(id).Runtime, g.Task(e.VisibleTask(best.Slot())).Runtime
		if ra > rb {
			best = a
		}
	}
	if best == simenv.Process {
		// Nothing from the current level fits (or is ready): process if we
		// can; otherwise fall back to any legal action to guarantee
		// progress (can happen when only deeper-level tasks are ready and
		// the cluster is idle).
		for _, a := range legal {
			if a == simenv.Process {
				return simenv.Process, nil
			}
		}
		return legal[0], nil
	}
	return best, nil
}

// NewLevelByLevelScheduler wraps the policy as a full scheduler.
func NewLevelByLevelScheduler() *PolicyScheduler {
	return newPolicyScheduler(LevelByLevel{}, nil, 0)
}
