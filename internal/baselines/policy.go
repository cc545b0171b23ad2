// Package baselines implements the scheduling algorithms Spear is compared
// against in the paper's evaluation: Tetris (multi-resource packing), SJF
// (shortest job first), CP (largest critical path first), a uniformly random
// policy, and Graphene (troublesome-tasks-first with forward/backward
// virtual placement).
//
// Tetris, SJF, CP and Random are online decision policies over the shared
// scheduling environment; Graphene first derives a priority order offline
// and then executes it online. Every scheduler in the module, these
// baselines as much as MCTS, Spear, annealing and the exact solver, plays
// its episodes through simenv, which keeps makespans directly comparable.
package baselines

import (
	"fmt"
	"math/rand"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/sched"
	"spear/internal/simenv"
)

// PolicyScheduler adapts a simenv.Policy into a sched.Scheduler by playing
// one event-driven episode per job. The episode, the rollout context and the
// random source are the scheduler's own and are reset per job, so a warm
// scheduler allocates only the schedule it returns; like every
// sched.Scheduler it is not safe for concurrent use.
type PolicyScheduler struct {
	policy simenv.Policy
	seed   int64

	env simenv.Env
	rc  *simenv.RolloutContext // for policy
	rng *rand.Rand             // re-seeded per job; nil for policies that never draw
}

var _ sched.Scheduler = (*PolicyScheduler)(nil)

// newPolicyScheduler wraps the policy as a full scheduler. A policy that
// draws gets rng, re-seeded with seed before every job; the deterministic
// policies pass nil.
func newPolicyScheduler(p simenv.Policy, rng *rand.Rand, seed int64) *PolicyScheduler {
	return &PolicyScheduler{policy: p, seed: seed, rc: simenv.NewRolloutContext(p), rng: rng}
}

// Name implements sched.Scheduler.
func (s *PolicyScheduler) Name() string { return s.policy.Name() }

// Schedule implements sched.Scheduler.
func (s *PolicyScheduler) Schedule(g *dag.Graph, spec cluster.Spec) (*sched.Schedule, error) {
	e, err := s.env.Reset(g, spec, simenv.Config{Mode: simenv.NextCompletion})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.policy.Name(), err)
	}
	if s.rng != nil {
		s.rng.Seed(s.seed) // every job draws from the start of the same stream
	}
	if _, err := s.rc.Rollout(e, s.rng); err != nil {
		return nil, fmt.Errorf("policy %s: %w", s.policy.Name(), err)
	}
	return e.Schedule(s.policy.Name())
}

// availBuf is stack room for a free-capacity vector (Env.AvailableNowInto):
// the paper's clusters have two resource dimensions, and a spec with more
// than eight only costs the packing policies an allocation per decision.
type availBuf [8]int64

// pickBest returns the schedule action maximizing better, or Process when no
// task fits. better(a, b) reports whether a is strictly preferable to b;
// ties fall to the earlier action (lower visible index), keeping policies
// deterministic.
func pickBest(legal []simenv.Action, better func(a, b simenv.Action) bool) simenv.Action {
	best := simenv.Process
	for _, a := range legal {
		if a != simenv.Process && (best == simenv.Process || better(a, best)) {
			best = a
		}
	}
	return best
}
