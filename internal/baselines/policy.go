// Package baselines implements the scheduling algorithms Spear is compared
// against in the paper's evaluation: Tetris (multi-resource packing), SJF
// (shortest job first), CP (largest critical path first), a uniformly random
// policy, and Graphene (troublesome-tasks-first with forward/backward
// virtual placement).
//
// Tetris, SJF, CP and Random are online decision policies over the shared
// scheduling environment; Graphene first derives a priority order offline
// and then executes it online. Every baseline therefore produces schedules
// through the exact same execution substrate as MCTS and Spear, which keeps
// makespans directly comparable.
package baselines

import (
	"fmt"
	"math/rand"
	"time"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/sched"
	"spear/internal/simenv"
)

// PolicyScheduler adapts a simenv.Policy into a sched.Scheduler by playing
// one episode per job. The episode, the rollout context and the random
// source are the scheduler's own and are reset per job, so a warm scheduler
// allocates only the schedule it returns; like every sched.Scheduler it is
// not safe for concurrent use.
type PolicyScheduler struct {
	policy simenv.Policy
	cfg    simenv.Config
	seed   int64

	env simenv.Env
	rc  *simenv.RolloutContext // for policy
	rng *rand.Rand             // over a lazySource, re-seeded per job
}

var _ sched.Scheduler = (*PolicyScheduler)(nil)

// newPolicyScheduler wraps the policy as a full scheduler. The seed feeds
// the policy's random source; deterministic policies ignore it.
func newPolicyScheduler(p simenv.Policy, cfg simenv.Config, seed int64) *PolicyScheduler {
	return &PolicyScheduler{
		policy: p, cfg: cfg, seed: seed,
		rc:  simenv.NewRolloutContext(p),
		rng: rand.New(&lazySource{seed: seed}),
	}
}

// Name implements sched.Scheduler.
func (s *PolicyScheduler) Name() string { return s.policy.Name() }

// Schedule implements sched.Scheduler.
func (s *PolicyScheduler) Schedule(g *dag.Graph, spec cluster.Spec) (*sched.Schedule, error) {
	e, err := s.env.Reset(g, spec, s.cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.policy.Name(), err)
	}
	s.rng.Seed(s.seed) // every job draws from the start of the same stream
	began := time.Now()
	if _, err := s.rc.Rollout(e, s.rng); err != nil {
		return nil, fmt.Errorf("policy %s: %w", s.policy.Name(), err)
	}
	out, err := e.Schedule(s.policy.Name())
	if err != nil {
		return nil, err
	}
	out.Elapsed = time.Since(began)
	return out, nil
}

// lazySource is rand.NewSource(seed) seeded at the first draw instead of up
// front: seeding fills a 607-word table, and Tetris, SJF and CP never draw.
// It implements rand.Source64 as the wrapped source does, so every stream a
// rand.Rand derives from it is the one it would derive from the source itself.
type lazySource struct {
	seed int64
	src  rand.Source64
}

var _ rand.Source64 = (*lazySource)(nil)

func (l *lazySource) source() rand.Source64 {
	if l.src == nil {
		l.src = rand.NewSource(l.seed).(rand.Source64)
	}
	return l.src
}

func (l *lazySource) Int63() int64    { return l.source().Int63() }
func (l *lazySource) Uint64() uint64  { return l.source().Uint64() }
func (l *lazySource) Seed(seed int64) { l.seed, l.src = seed, nil }

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
