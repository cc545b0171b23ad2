// Package exact finds provably optimal makespans for small jobs by
// depth-first branch and bound over the same decision process every other
// scheduler in this repository uses. It exists to validate the search-based
// schedulers (is Spear's "2T" on the motivating example actually optimal?)
// and to measure optimality gaps on small instances — DAG scheduling is
// NP-hard, so this is only tractable for jobs of roughly a dozen tasks.
package exact

import (
	"context"
	"errors"
	"fmt"
	"time"

	"spear/internal/baselines"
	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/obs"
	"spear/internal/resource"
	"spear/internal/sched"
	"spear/internal/simenv"
)

// Solver is an exact branch-and-bound makespan minimizer. It implements
// sched.Scheduler; Schedule fails with ErrBudgetExceeded when the node
// budget runs out before optimality is proven.
type Solver struct {
	// MaxNodes caps the number of explored search nodes. Zero means
	// defaultMaxNodes.
	MaxNodes int64
	// Obs, when non-nil, is the registry the solver's metrics are registered
	// in (shared registries aggregate across schedulers). Nil means a
	// private registry. Set before the first Schedule call.
	Obs *obs.Registry

	explored int64
	optimal  bool
	sm       *obs.SolverMetrics
	reg      *obs.Registry
	greedy   *baselines.PolicyScheduler // Tetris, for the incumbent
}

// defaultMaxNodes bounds the search effort (~a few seconds for 10-12 task
// jobs).
const defaultMaxNodes = 5_000_000

// ErrBudgetExceeded reports that the node budget ran out before the search
// space was exhausted.
var ErrBudgetExceeded = errors.New("exact: node budget exceeded before proving optimality")

var _ sched.ContextScheduler = (*Solver)(nil)

// New returns a Solver with the given node budget (0 = defaultMaxNodes).
func New(maxNodes int64) *Solver {
	return &Solver{MaxNodes: maxNodes, greedy: baselines.NewTetrisScheduler()}
}

// Name implements sched.Scheduler.
func (s *Solver) Name() string { return "Optimal" }

// Explored reports how many nodes the last Schedule call visited.
func (s *Solver) Explored() int64 { return s.explored }

// Optimal reports whether the last Schedule call proved optimality.
func (s *Solver) Optimal() bool { return s.optimal }

// metrics lazily builds the solver's metric bundle, honoring Obs.
func (s *Solver) metrics() *obs.SolverMetrics {
	if s.sm == nil {
		s.reg = s.Obs
		if s.reg == nil {
			s.reg = obs.NewRegistry()
		}
		s.sm = obs.NewSolverMetrics(s.reg)
	}
	return s.sm
}

// Metrics renders the solver's cumulative metrics snapshot.
func (s *Solver) Metrics() obs.Snapshot {
	s.metrics()
	return s.reg.Snapshot()
}

// ctxCheckInterval is how many dfs nodes are explored between ctx.Err()
// polls — the dfs hot loop stays free of per-node synchronization.
const ctxCheckInterval = 2048

type searchState struct {
	ctx          context.Context
	bestMakespan int64
	bestEnv      *simenv.Env
	limit        int64
	explored     int64
	improvements int64
	nextCtxCheck int64
	cancelled    bool
	g            *dag.Graph
	total        resource.Vector // aggregate capacity across machines
}

// Schedule implements sched.Scheduler. It is ScheduleContext with an
// uncancellable background context.
func (s *Solver) Schedule(g *dag.Graph, spec cluster.Spec) (*sched.Schedule, error) {
	return s.ScheduleContext(context.Background(), g, spec)
}

// ScheduleContext implements sched.ContextScheduler. The context is checked
// at the root node and every ctxCheckInterval explored nodes after it; on
// cancellation the best incumbent schedule found so far — at the least the
// greedy one — is returned together with an error wrapping ctx.Err().
func (s *Solver) ScheduleContext(ctx context.Context, g *dag.Graph, spec cluster.Spec) (*sched.Schedule, error) {
	began := time.Now()
	s.explored = 0
	s.optimal = false
	sm := s.metrics()
	defer sm.SolveTime.ObserveSince(began)

	limit := s.MaxNodes
	if limit <= 0 {
		limit = defaultMaxNodes
	}

	// Incumbent: a greedy packing run gives an upper bound that prunes
	// most of the tree immediately.
	incumbent, err := s.greedy.Schedule(g, spec)
	if err != nil {
		return nil, fmt.Errorf("exact: incumbent: %w", err)
	}

	root, err := simenv.NewCluster(g, spec, simenv.Config{Mode: simenv.NextCompletion})
	if err != nil {
		return nil, err
	}
	st := &searchState{
		ctx:          ctx,
		bestMakespan: incumbent.Makespan,
		limit:        limit,
		nextCtxCheck: 1, // the root polls: a cancelled call stops there, with the greedy incumbent
		g:            g,
		total:        spec.Total(),
	}
	exhausted := st.dfs(root, -1)
	s.explored = st.explored
	// The dfs loop accumulates locally and flushes here, once per call.
	sm.NodesExplored.Add(st.explored)
	sm.IncumbentImprovements.Add(st.improvements)

	var out *sched.Schedule
	if st.bestEnv != nil {
		out, err = st.bestEnv.Schedule(s.Name())
		if err != nil {
			return nil, err
		}
	} else {
		// The greedy incumbent was already optimal (or at least never
		// improved upon within the explored space).
		out = incumbent
		out.Algorithm = s.Name()
	}
	if st.cancelled {
		return out, fmt.Errorf("exact: search cancelled, best found %d after %d nodes: %w", out.Makespan, st.explored, ctx.Err())
	}
	if !exhausted {
		return out, fmt.Errorf("%w: best found %d after %d nodes", ErrBudgetExceeded, out.Makespan, st.explored)
	}
	s.optimal = true
	return out, nil
}

// dfs explores the subtree under e. minTaskID implements a symmetry
// reduction: schedule actions taken back-to-back at the same instant
// commute, so only ID-increasing sequences are explored. It reports false
// when the node budget ran out or the context was cancelled.
func (st *searchState) dfs(e *simenv.Env, minTaskID dag.TaskID) bool {
	st.explored++
	if st.explored > st.limit {
		return false
	}
	if st.explored >= st.nextCtxCheck {
		st.nextCtxCheck += ctxCheckInterval
		if st.ctx.Err() != nil {
			st.cancelled = true
		}
	}
	if st.cancelled {
		return false
	}
	if e.Done() {
		if m := e.Makespan(); m < st.bestMakespan {
			st.bestMakespan = m
			st.bestEnv = e.Clone()
			st.improvements++
		}
		return true
	}
	if st.lowerBound(e) >= st.bestMakespan {
		return true // pruned: cannot improve on the incumbent
	}

	exhausted := true
	for _, a := range e.LegalActions() {
		if st.cancelled {
			return false
		}
		var nextMin dag.TaskID
		if a != simenv.Process {
			id := e.VisibleTask(a.Slot())
			if id <= minTaskID {
				continue // symmetric permutation already covered
			}
			nextMin = id
		} else {
			nextMin = -1 // the clock advanced; reset the canonical order
		}
		child := e.Clone()
		if err := child.Step(a); err != nil {
			// Legal actions never fail; treat defensively as a prune.
			continue
		}
		if !st.dfs(child, nextMin) {
			exhausted = false
		}
	}
	return exhausted
}

// lowerBound returns an admissible bound on the best completion time
// reachable from e: the max of (a) the latest finish already committed,
// (b) now plus the b-level of any task not yet started, (c) each running
// task's finish plus its children's b-levels, and (d) now plus the
// remaining-work-over-capacity bound.
func (st *searchState) lowerBound(e *simenv.Env) int64 {
	g := st.g
	now := e.Now()
	bound := e.Makespan() // (a): committed finishes

	dims := g.Dims()
	remaining := make([]int64, dims)

	for id := 0; id < g.NumTasks(); id++ {
		tid := dag.TaskID(id)
		task := g.Task(tid)
		switch {
		case e.TaskDone(tid):
			// contributes nothing further
		case e.TaskRunning(tid):
			// (c) its children cannot start before its committed finish,
			// and its remaining occupancy counts toward the work bound.
			finish, _ := e.TaskFinish(tid)
			for _, c := range g.Succ(tid) {
				if cand := finish + g.BLevel(c); cand > bound {
					bound = cand
				}
			}
			for d := 0; d < dims; d++ {
				remaining[d] += (finish - now) * task.Demand[d]
			}
		default:
			// (b) not started: it starts at `now` at the earliest.
			if cand := now + g.BLevel(tid); cand > bound {
				bound = cand
			}
			for d := 0; d < dims; d++ {
				remaining[d] += task.Runtime * task.Demand[d]
			}
		}
	}
	// (d) remaining work must fit under the aggregate capacity from now
	// on — admissible for any machine split, since fragmenting the
	// capacity across machines can only delay completion.
	for d := 0; d < dims; d++ {
		if remaining[d] == 0 {
			continue
		}
		cand := now + (remaining[d]+st.total[d]-1)/st.total[d]
		if cand > bound {
			bound = cand
		}
	}
	return bound
}
