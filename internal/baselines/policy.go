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
	rc  *simenv.RolloutContext // for policy; nil until the first job and after WithRouting
	rng *rand.Rand             // over a lazySource, re-seeded per job
}

var _ sched.Scheduler = (*PolicyScheduler)(nil)

// newPolicyScheduler wraps the policy as a full scheduler. The seed feeds
// the policy's random source; deterministic policies ignore it.
func newPolicyScheduler(p simenv.Policy, cfg simenv.Config, seed int64) *PolicyScheduler {
	return &PolicyScheduler{policy: p, cfg: cfg, seed: seed, rng: rand.New(&lazySource{seed: seed})}
}

// Name implements sched.Scheduler.
func (s *PolicyScheduler) Name() string { return s.policy.Name() }

// WithRouting overrides how the wrapped policy picks machines on
// multi-machine specs: the policy still selects which task to start (by
// slot), but the machine among those the task currently fits is chosen by
// the routing policy instead of first-fit. A nil routing policy restores
// first-fit. Single-machine schedules are unaffected. Returns s.
func (s *PolicyScheduler) WithRouting(r cluster.RoutingPolicy) *PolicyScheduler {
	if base, ok := s.policy.(*routedPolicy); ok {
		s.policy = base.policy
	}
	if r != nil {
		s.policy = &routedPolicy{policy: s.policy, route: r}
	}
	s.rc = nil
	return s
}

// Schedule implements sched.Scheduler.
func (s *PolicyScheduler) Schedule(g *dag.Graph, spec cluster.Spec) (*sched.Schedule, error) {
	e, err := s.env.Reset(g, spec, s.cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.policy.Name(), err)
	}
	if s.rc == nil {
		s.rc = simenv.NewRolloutContext(s.policy)
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

// routedPolicy decorates a task-selection policy with a machine-selection
// routing policy: the base policy picks an action, and when that action
// starts a task, the machine is re-picked by the router among the machines
// the task legally fits right now.
type routedPolicy struct {
	policy simenv.Policy
	route  cluster.RoutingPolicy

	machines []int // scratch candidate buffer
}

var _ simenv.Policy = (*routedPolicy)(nil)

// Name implements simenv.Policy.
func (p *routedPolicy) Name() string { return p.policy.Name() + "+" + p.route.Name() }

// Choose implements simenv.Policy.
func (p *routedPolicy) Choose(e *simenv.Env, legal []simenv.Action, rng *rand.Rand) (simenv.Action, error) {
	a, err := p.policy.Choose(e, legal, rng)
	if err != nil || a == simenv.Process || e.NumMachines() == 1 {
		return a, err
	}
	slot := a.Slot()
	p.machines = p.machines[:0]
	for _, la := range legal {
		if la != simenv.Process && la.Slot() == slot {
			p.machines = append(p.machines, la.Machine())
		}
	}
	if len(p.machines) == 0 {
		return a, nil
	}
	task := e.Graph().Task(e.VisibleTask(slot))
	m := p.route.Route(e.Cluster(), p.machines, task.Demand, task.Runtime, e.Now())
	for _, c := range p.machines {
		if c == m {
			return simenv.At(slot, m), nil
		}
	}
	// A router returning a non-candidate machine is a bug; fall back to the
	// base policy's pick rather than emit an illegal action.
	return a, nil
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
