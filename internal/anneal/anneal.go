// Package anneal implements a simulated-annealing scheduler that searches
// the space of task *priority orders*, executing each candidate order with
// the work-conserving online executor. It is a classic local-search
// comparator for the paper's tree search — and a deliberately instructive
// one: because every order is executed work-conservingly, annealing can
// never express Spear's "decline a ready task now" decisions, so it stays
// trapped at ~3T on the motivating example no matter how long it runs
// (demonstrated in the tests). The search space reduction of §III-B —
// acting on the cluster timeline rather than on orders — is what MCTS
// buys.
package anneal

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"spear/internal/baselines"
	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/sched"
)

// Config parameterizes the annealer.
type Config struct {
	// Iterations is the number of candidate orders evaluated. Default 500.
	Iterations int
	// Seed feeds the annealer's random source.
	Seed int64
}

func (c Config) normalized() Config {
	if c.Iterations <= 0 {
		c.Iterations = 500
	}
	return c
}

// The temperature — the scale of the acceptance probability of worse
// candidates — starts at initialTempFraction of the initial makespan and
// cools geometrically to finalTempFraction of that by the last iteration.
const (
	initialTempFraction = 0.05
	finalTempFraction   = 0.01
)

// coolingFactor is the per-iteration factor of that schedule.
func (c Config) coolingFactor() float64 {
	return math.Pow(finalTempFraction, 1/float64(c.Iterations))
}

// Scheduler is the simulated-annealing order search. It implements
// sched.Scheduler. Every candidate order runs on the scheduler's one
// baselines.OrderRunner, so it is not safe for concurrent use.
type Scheduler struct {
	cfg    Config
	runner *baselines.OrderRunner
}

var _ sched.ContextScheduler = (*Scheduler)(nil)

// New returns an annealing scheduler.
func New(cfg Config) *Scheduler {
	return &Scheduler{cfg: cfg.normalized(), runner: baselines.NewOrderRunner("Annealing")}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "Annealing" }

// Schedule implements sched.Scheduler. It is ScheduleContext with an
// uncancellable background context.
func (s *Scheduler) Schedule(g *dag.Graph, spec cluster.Spec) (*sched.Schedule, error) {
	return s.ScheduleContext(context.Background(), g, spec)
}

// ScheduleContext implements sched.ContextScheduler. The context is checked
// once per annealing iteration; on cancellation the best order found so far
// is executed and returned together with an error wrapping ctx.Err().
func (s *Scheduler) ScheduleContext(ctx context.Context, g *dag.Graph, spec cluster.Spec) (*sched.Schedule, error) {
	bestOrder, _, cancelledAt, err := s.search(ctx, g, spec)
	if err != nil {
		return nil, err
	}
	if _, err := s.evaluate(g, spec, bestOrder); err != nil {
		return nil, err
	}
	out, err := s.runner.Schedule()
	if err != nil {
		return nil, err
	}
	if cancelledAt >= 0 {
		return out, fmt.Errorf("anneal: search cancelled at iteration %d: %w", cancelledAt, ctx.Err())
	}
	return out, nil
}

// search runs the annealing loop and returns the best order found, the
// final temperature, and the iteration at which ctx cancelled the search
// (-1 when it ran to completion). The temperature cools once per iteration
// unconditionally — including iterations whose swap draw hits i == j and
// proposes nothing — so the normalized geometric schedule reaches its
// 1%-of-initial floor exactly at the last iteration.
func (s *Scheduler) search(ctx context.Context, g *dag.Graph, spec cluster.Spec) (bestOrder []dag.TaskID, finalTemp float64, cancelledAt int, err error) {
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	n := g.NumTasks()

	// Start from the CP order — a strong, cheap incumbent.
	order := make([]dag.TaskID, n)
	for i := range order {
		order[i] = dag.TaskID(i)
	}
	blevel := func(id dag.TaskID) int64 { return g.BLevel(id) }
	sortByDesc(order, blevel)

	current, err := s.evaluate(g, spec, order)
	if err != nil {
		return nil, 0, -1, err
	}
	best := current
	bestOrder = append([]dag.TaskID(nil), order...)

	temp := initialTempFraction * float64(current)
	if temp < 1 {
		temp = 1
	}
	cooling := s.cfg.coolingFactor()
	cancelledAt = -1
	for iter := 0; iter < s.cfg.Iterations; iter++ {
		if ctx.Err() != nil {
			cancelledAt = iter
			break
		}
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			order[i], order[j] = order[j], order[i]
			cand, err := s.evaluate(g, spec, order)
			if err != nil {
				return nil, 0, -1, err
			}
			delta := float64(cand - current)
			if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
				current = cand
				if cand < best {
					best = cand
					copy(bestOrder, order)
				}
			} else {
				order[i], order[j] = order[j], order[i] // revert
			}
		}
		temp *= cooling
	}
	return bestOrder, temp, cancelledAt, nil
}

// evaluate executes the order and returns the makespan.
func (s *Scheduler) evaluate(g *dag.Graph, spec cluster.Spec, order []dag.TaskID) (int64, error) {
	makespan, err := s.runner.Makespan(g, spec, order)
	if err != nil {
		return 0, fmt.Errorf("anneal: %w", err)
	}
	return makespan, nil
}

// sortByDesc orders ids by descending key (ties: smaller ID).
func sortByDesc(ids []dag.TaskID, key func(dag.TaskID) int64) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0; j-- {
			ki, kj := key(ids[j]), key(ids[j-1])
			if ki > kj || (ki == kj && ids[j] < ids[j-1]) {
				ids[j], ids[j-1] = ids[j-1], ids[j]
			} else {
				break
			}
		}
	}
}
