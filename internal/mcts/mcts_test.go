package mcts

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spear/internal/baselines"
	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/resource"
	"spear/internal/sched"
	"spear/internal/simenv"
	"spear/internal/workload"
)

func smallRandomDAG(seed int64, n int) (*dag.Graph, resource.Vector) {
	cfg := workload.DefaultRandomDAGConfig()
	cfg.NumTasks = n
	g, err := workload.RandomDAG(rand.New(rand.NewSource(seed)), cfg)
	if err != nil {
		panic(err)
	}
	return g, cfg.Capacity()
}

func TestMCTSProducesValidSchedules(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g, capacity := smallRandomDAG(seed, 30)
		s := New(Config{InitialBudget: 60, MinBudget: 10, Seed: seed})
		out, err := s.Schedule(g, cluster.Single(capacity))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := sched.Validate(g, cluster.Single(capacity), out); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		lb, err := g.MakespanLowerBound(capacity)
		if err != nil {
			t.Fatal(err)
		}
		if out.Makespan < lb {
			t.Errorf("seed %d: makespan %d below lower bound %d", seed, out.Makespan, lb)
		}
		stats := s.LastStats()
		if stats.Decisions == 0 || stats.Expansions == 0 {
			t.Errorf("seed %d: empty stats %+v", seed, stats)
		}
	}
}

func TestMCTSDeterministicGivenSeed(t *testing.T) {
	g, capacity := smallRandomDAG(11, 25)
	run := func() int64 {
		s := New(Config{InitialBudget: 50, MinBudget: 10, Seed: 3})
		out, err := s.Schedule(g, cluster.Single(capacity))
		if err != nil {
			t.Fatal(err)
		}
		return out.Makespan
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed gave different makespans: %d vs %d", a, b)
	}
}

func TestMCTSSolvesMotivatingExample(t *testing.T) {
	g, err := workload.MotivatingExample(100)
	if err != nil {
		t.Fatal(err)
	}
	capacity := workload.MotivatingCapacity()
	s := New(Config{InitialBudget: 3000, MinBudget: 300, Seed: 1})
	out, err := s.Schedule(g, cluster.Single(capacity))
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, cluster.Single(capacity), out); err != nil {
		t.Fatal(err)
	}
	// The work-conserving heuristics are stuck at 301 (~3T); the search must
	// discover the non-greedy 2T-region schedule.
	if out.Makespan >= 301 {
		t.Errorf("MCTS makespan = %d, want < 301 (heuristic trap)", out.Makespan)
	}
	if out.Makespan > 210 {
		t.Logf("note: MCTS found %d, optimal region is ~202", out.Makespan)
	}
}

func TestMCTSBeatsRandomOnAverage(t *testing.T) {
	var mctsTotal, randTotal int64
	for seed := int64(0); seed < 3; seed++ {
		g, capacity := smallRandomDAG(seed+100, 40)
		s := New(Config{InitialBudget: 80, MinBudget: 20, Seed: seed})
		out, err := s.Schedule(g, cluster.Single(capacity))
		if err != nil {
			t.Fatal(err)
		}
		mctsTotal += out.Makespan

		r, err := baselines.NewRandomScheduler(seed).Schedule(g, cluster.Single(capacity))
		if err != nil {
			t.Fatal(err)
		}
		randTotal += r.Makespan
	}
	if mctsTotal >= randTotal {
		t.Errorf("MCTS total %d not better than random total %d", mctsTotal, randTotal)
	}
}

func TestMCTSMoreBudgetNotWorse(t *testing.T) {
	// Statistically more budget helps; on a fixed seed/graph we assert the
	// weaker, stable property that a large budget is at least as good as a
	// tiny one.
	g, capacity := smallRandomDAG(42, 30)
	small := New(Config{InitialBudget: 5, MinBudget: 2, Seed: 7})
	big := New(Config{InitialBudget: 400, MinBudget: 80, Seed: 7})
	outSmall, err := small.Schedule(g, cluster.Single(capacity))
	if err != nil {
		t.Fatal(err)
	}
	outBig, err := big.Schedule(g, cluster.Single(capacity))
	if err != nil {
		t.Fatal(err)
	}
	if outBig.Makespan > outSmall.Makespan {
		t.Errorf("budget 400 makespan %d worse than budget 5 makespan %d", outBig.Makespan, outSmall.Makespan)
	}
}

func TestConfigNormalization(t *testing.T) {
	s := New(Config{})
	if s.cfg.InitialBudget != 1000 || s.cfg.MinBudget != 100 {
		t.Errorf("default budgets = %d/%d, want 1000/100", s.cfg.InitialBudget, s.cfg.MinBudget)
	}
	if s.cfg.Rollout == nil || s.cfg.Expand == nil {
		t.Error("default policies not set")
	}
	s = New(Config{InitialBudget: 10, MinBudget: 50})
	if s.cfg.MinBudget != 10 {
		t.Errorf("MinBudget not clamped to InitialBudget: %d", s.cfg.MinBudget)
	}
}

func TestNamedScheduler(t *testing.T) {
	s := NewNamed("Spear", Config{InitialBudget: 5, MinBudget: 2})
	if s.Name() != "Spear" {
		t.Errorf("Name = %q", s.Name())
	}
	g, capacity := smallRandomDAG(1, 10)
	out, err := s.Schedule(g, cluster.Single(capacity))
	if err != nil {
		t.Fatal(err)
	}
	if out.Algorithm != "Spear" {
		t.Errorf("Algorithm = %q", out.Algorithm)
	}
}

func TestForcedMovesSkipSearch(t *testing.T) {
	// A pure chain has exactly one legal action at every step, so zero
	// iterations should be spent.
	b := dag.NewBuilder(1)
	prev := b.AddTask("t0", 2, resource.Of(1))
	for i := 1; i < 6; i++ {
		cur := b.AddTask("t", 2, resource.Of(1))
		b.AddDep(prev, cur)
		prev = cur
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{InitialBudget: 100, MinBudget: 10, Seed: 1})
	out, err := s.Schedule(g, cluster.Single(resource.Of(1)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Makespan != 12 {
		t.Errorf("chain makespan = %d, want 12", out.Makespan)
	}
	if got := s.LastStats().Iterations; got != 0 {
		t.Errorf("Iterations = %d, want 0 (all moves forced)", got)
	}
	// Forced-move children are bookkeeping, not expansions: a run with zero
	// search iterations must report zero expansions.
	if got := s.LastStats().Expansions; got != 0 {
		t.Errorf("Expansions = %d, want 0 (all moves forced)", got)
	}
}

func TestTerminalNodeBackpropagatesFullWeight(t *testing.T) {
	// With RolloutsPerExpansion = k, an expanded leaf backpropagates k
	// values. A terminal leaf's makespan is exact, so it must carry the same
	// weight: simulate has to report the exact value k times, not once —
	// otherwise terminal (fully known) outcomes are diluted k-fold in every
	// ancestor's visit-weighted mean.
	b := dag.NewBuilder(1)
	t0 := b.AddTask("t0", 2, resource.Of(1))
	t1 := b.AddTask("t1", 3, resource.Of(1))
	b.AddDep(t0, t1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	env, err := simenv.New(g, resource.Of(1), simenv.Config{Mode: simenv.NextCompletion})
	if err != nil {
		t.Fatal(err)
	}
	for !env.Done() {
		legal := env.LegalActions()
		if err := env.Step(legal[0]); err != nil {
			t.Fatal(err)
		}
	}
	const k = 4
	s := New(Config{InitialBudget: 10, MinBudget: 2, RolloutsPerExpansion: k})
	tw := s.worker(0)
	tw.arena.reset()
	n := tw.arena.node(tw.newNode(env, nilNode, 0))
	values, err := tw.sims[0].simulate(n, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != k {
		t.Fatalf("terminal simulate returned %d values, want %d", len(values), k)
	}
	want := -float64(env.Makespan())
	for i, v := range values {
		if v != want {
			t.Errorf("value %d = %v, want exact %v", i, v, want)
		}
	}
}

// TestSimulateMatchesSeededRollouts pins a k > 1 leaf evaluation to its
// definition: value i is the rollout of the i-th seed drawn from the search
// rng, played on a new context with a generator built from that seed. The worker plays
// all of them on one re-seeded generator and one rollout context, which must
// not change a single draw — the second simulate call starts from a
// generator and a policy memo the first one has used.
func TestSimulateMatchesSeededRollouts(t *testing.T) {
	g, capacity := smallRandomDAG(29, 25)
	for _, tc := range []struct {
		name    string
		rollout simenv.Policy
		window  int
	}{
		{"random", baselines.Random{}, 0},
		{"drl", untrainedAgent(t, smallFeat, false), smallFeat.Window},
	} {
		for _, k := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s_k%d", tc.name, k), func(t *testing.T) {
				env, err := simenv.New(g, capacity, simenv.Config{Window: tc.window, Mode: simenv.NextCompletion})
				if err != nil {
					t.Fatal(err)
				}
				s := New(Config{Rollout: tc.rollout, Window: tc.window, RolloutsPerExpansion: k})
				tw := s.worker(0)
				tw.arena.reset()
				n := tw.arena.node(tw.newNode(env, nilNode, 0))
				rng, twin := rand.New(rand.NewSource(17)), rand.New(rand.NewSource(17))
				for call := 0; call < 2; call++ {
					values, err := tw.sims[0].simulate(n, rng)
					if err != nil {
						t.Fatal(err)
					}
					if len(values) != k {
						t.Fatalf("call %d: %d values, want %d", call, len(values), k)
					}
					for i, v := range values {
						makespan, err := simenv.NewRolloutContext(tc.rollout).RolloutFrom(env, rand.New(rand.NewSource(twin.Int63())))
						if err != nil {
							t.Fatal(err)
						}
						if v != -float64(makespan) {
							t.Errorf("call %d value %d = %v, a fresh context and source give %v", call, i, v, -float64(makespan))
						}
					}
				}
			})
		}
	}
}

func TestZeroVisitNodeOrdering(t *testing.T) {
	// A zero-visit stats block has sum/visits = 0/0; mean() must report
	// -Inf, not NaN — NaN compares false against everything, which would let
	// an unvisited child silently win (or lose) better() and corrupt the
	// committed-move tiebreak. Construct the degenerate pair directly.
	visited := nodeStats{visits: 2, sum: -20, max: -8}
	unvisited := nodeStats{max: unvisitedMax}

	if m := unvisited.mean(); !math.IsInf(m, -1) {
		t.Errorf("zero-visit mean = %v, want -Inf", m)
	}
	if unvisited.better(&visited) {
		t.Error("unvisited block beat a visited sibling")
	}
	if !visited.better(&unvisited) {
		t.Error("visited block did not beat an unvisited sibling")
	}

	// Two zero-visit blocks: neither is strictly better, and the comparison
	// must not be NaN-poisoned into an arbitrary true.
	other := nodeStats{max: unvisitedMax}
	if unvisited.better(&other) || other.better(&unvisited) {
		t.Error("two unvisited blocks ordered strictly")
	}

	// ucb of a visited block must stay finite even when its sibling is
	// unvisited; an unvisited block keeps its +Inf first-visit priority,
	// unless a virtual loss marks it as in flight (then -Inf, so concurrent
	// workers de-correlate).
	const parentEff = 3
	if u := visited.ucb(1.0, parentEff); math.IsNaN(u) || math.IsInf(u, 0) {
		t.Errorf("visited ucb = %v, want finite", u)
	}
	if u := unvisited.ucb(1.0, parentEff); !math.IsInf(u, 1) {
		t.Errorf("unvisited ucb = %v, want +Inf", u)
	}
	unvisited.vloss = 1
	if u := unvisited.ucb(1.0, parentEff); !math.IsInf(u, -1) {
		t.Errorf("unvisited ucb with virtual loss = %v, want -Inf", u)
	}
}

// fixedExpander always expands the first untried action; used to verify the
// Expander plumbing.
type fixedExpander struct{ calls int }

func (f *fixedExpander) Name() string { return "fixed" }

func (f *fixedExpander) Next(_ *simenv.Env, _ []simenv.Action, _ *rand.Rand) (int, error) {
	f.calls++
	return 0, nil
}

// badExpander returns an out-of-range index — failure injection for the
// search loop's expander validation.
type badExpander struct{}

func (badExpander) Name() string { return "bad" }

func (badExpander) Next(_ *simenv.Env, untried []simenv.Action, _ *rand.Rand) (int, error) {
	return len(untried) + 3, nil
}

// erroringExpander fails outright.
type erroringExpander struct{}

func (erroringExpander) Name() string { return "erroring" }

func (erroringExpander) Next(_ *simenv.Env, _ []simenv.Action, _ *rand.Rand) (int, error) {
	return 0, errTest
}

var errTest = dag.ErrEmpty // any sentinel will do for matching

func TestExpanderFailureInjection(t *testing.T) {
	g, capacity := smallRandomDAG(6, 15)
	s := New(Config{InitialBudget: 20, MinBudget: 5, Seed: 1, Expand: badExpander{}})
	if _, err := s.Schedule(g, cluster.Single(capacity)); err == nil {
		t.Error("out-of-range expander index accepted")
	}
	s = New(Config{InitialBudget: 20, MinBudget: 5, Seed: 1, Expand: erroringExpander{}})
	if _, err := s.Schedule(g, cluster.Single(capacity)); err == nil {
		t.Error("expander error swallowed")
	}
}

func TestCustomExpanderIsUsed(t *testing.T) {
	g, capacity := smallRandomDAG(3, 15)
	exp := &fixedExpander{}
	s := New(Config{InitialBudget: 30, MinBudget: 5, Seed: 1, Expand: exp})
	if _, err := s.Schedule(g, cluster.Single(capacity)); err != nil {
		t.Fatal(err)
	}
	if exp.calls == 0 {
		t.Error("custom expander never called")
	}
}

// cpRollout uses the CP heuristic for rollouts; verifies pluggable rollout
// policies and is itself the simplest "expert rollout" ablation.
func TestCustomRolloutIsUsed(t *testing.T) {
	g, capacity := smallRandomDAG(4, 25)
	s := New(Config{InitialBudget: 30, MinBudget: 5, Seed: 1, Rollout: baselines.CP{}})
	out, err := s.Schedule(g, cluster.Single(capacity))
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, cluster.Single(capacity), out); err != nil {
		t.Error(err)
	}
}

func TestParallelRolloutsValidAndDeterministic(t *testing.T) {
	g, capacity := smallRandomDAG(6, 25)
	run := func() int64 {
		s := New(Config{InitialBudget: 30, MinBudget: 8, Seed: 4, RolloutsPerExpansion: 4})
		out, err := s.Schedule(g, cluster.Single(capacity))
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.Validate(g, cluster.Single(capacity), out); err != nil {
			t.Fatal(err)
		}
		return out.Makespan
	}
	if a, b := run(), run(); a != b {
		t.Errorf("parallel rollouts nondeterministic: %d vs %d", a, b)
	}
}

func TestParallelRolloutsIncreaseVisits(t *testing.T) {
	// With k rollouts per expansion, total simulations = k x iterations;
	// quality should be at least as good as single-rollout at tiny budget
	// most of the time — here we assert only the machinery runs and stats
	// count iterations, not rollouts.
	g, capacity := smallRandomDAG(8, 20)
	s := New(Config{InitialBudget: 10, MinBudget: 4, Seed: 2, RolloutsPerExpansion: 3})
	if _, err := s.Schedule(g, cluster.Single(capacity)); err != nil {
		t.Fatal(err)
	}
	if s.LastStats().Iterations == 0 {
		t.Error("no iterations recorded")
	}
}

func TestDisableBudgetDecaySpendsFullBudget(t *testing.T) {
	// Two independent tasks on a 1-capacity cluster: first decision has two
	// legal actions, so search runs; later decisions are forced. With decay
	// disabled every searched decision gets the full budget.
	b := dag.NewBuilder(1)
	b.AddTask("x", 2, resource.Of(1))
	b.AddTask("y", 3, resource.Of(1))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	capacity := resource.Of(1)

	decayed := New(Config{InitialBudget: 40, MinBudget: 1, Seed: 1})
	if _, err := decayed.Schedule(g, cluster.Single(capacity)); err != nil {
		t.Fatal(err)
	}
	constant := New(Config{InitialBudget: 40, MinBudget: 1, Seed: 1, DisableBudgetDecay: true})
	if _, err := constant.Schedule(g, cluster.Single(capacity)); err != nil {
		t.Fatal(err)
	}
	if constant.LastStats().Iterations < decayed.LastStats().Iterations {
		t.Errorf("no-decay iterations %d < decayed %d", constant.LastStats().Iterations, decayed.LastStats().Iterations)
	}
}

func TestWindowLimitsVisibleActions(t *testing.T) {
	// A wide fan of independent tasks with window 3: the search must still
	// schedule everything.
	b := dag.NewBuilder(1)
	for i := 0; i < 10; i++ {
		b.AddTask("t", 2, resource.Of(1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	capacity := resource.Of(3)
	s := New(Config{InitialBudget: 20, MinBudget: 5, Seed: 1, Window: 3})
	out, err := s.Schedule(g, cluster.Single(capacity))
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, cluster.Single(capacity), out); err != nil {
		t.Error(err)
	}
}
