package anneal

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"spear/internal/baselines"
	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/resource"
	"spear/internal/sched"
	"spear/internal/workload"
)

func TestProducesValidSchedules(t *testing.T) {
	cfg := workload.DefaultRandomDAGConfig()
	cfg.NumTasks = 30
	for seed := int64(0); seed < 3; seed++ {
		g, err := workload.RandomDAG(rand.New(rand.NewSource(seed)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{Iterations: 100, Seed: seed})
		out, err := s.Schedule(g, cluster.Single(cfg.Capacity()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := sched.Validate(g, cluster.Single(cfg.Capacity()), out); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestDeterministic(t *testing.T) {
	cfg := workload.DefaultRandomDAGConfig()
	cfg.NumTasks = 20
	g, err := workload.RandomDAG(rand.New(rand.NewSource(9)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func() int64 {
		out, err := New(Config{Iterations: 80, Seed: 5}).Schedule(g, cluster.Single(cfg.Capacity()))
		if err != nil {
			t.Fatal(err)
		}
		return out.Makespan
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic: %d vs %d", a, b)
	}
}

func TestNotWorseThanCPStart(t *testing.T) {
	// The annealer starts from the CP order and keeps the best candidate,
	// so it can never end up worse than plain CP execution.
	cfg := workload.DefaultRandomDAGConfig()
	cfg.NumTasks = 40
	for seed := int64(0); seed < 3; seed++ {
		g, err := workload.RandomDAG(rand.New(rand.NewSource(seed+50)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		annealed, err := New(Config{Iterations: 200, Seed: seed}).Schedule(g, cluster.Single(cfg.Capacity()))
		if err != nil {
			t.Fatal(err)
		}
		cp, err := baselines.NewCPScheduler().Schedule(g, cluster.Single(cfg.Capacity()))
		if err != nil {
			t.Fatal(err)
		}
		if annealed.Makespan > cp.Makespan {
			t.Errorf("seed %d: annealing %d worse than CP %d", seed, annealed.Makespan, cp.Makespan)
		}
	}
}

func TestOrderSearchCannotEscapeMotivatingTrap(t *testing.T) {
	// The key negative result: every work-conserving execution of *any*
	// priority order lands at 301 on the motivating example, because the
	// trap is about declining a ready task, not about ordering. Annealing
	// over orders therefore cannot reach the 202 optimum that MCTS/Spear
	// find — exactly the paper's argument for searching over timeline
	// actions instead of orders.
	g, err := workload.MotivatingExample(100)
	if err != nil {
		t.Fatal(err)
	}
	capacity := workload.MotivatingCapacity()
	out, err := New(Config{Iterations: 800, Seed: 1}).Schedule(g, cluster.Single(capacity))
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, cluster.Single(capacity), out); err != nil {
		t.Fatal(err)
	}
	if out.Makespan != 301 {
		t.Errorf("annealing makespan = %d; expected the work-conserving 301", out.Makespan)
	}
}

func TestCoolingReachesFloor(t *testing.T) {
	// Regression: the swap draw hitting i == j used to `continue` past the
	// cooling update, so single-task jobs (where i == j on every iteration)
	// never cooled at all and larger jobs fell short of the schedule's
	// 1%-of-initial floor. The update is now unconditional: after N
	// iterations the temperature must be initial * coolingFactor^N, which
	// the schedule pins at finalTempFraction of the initial temperature.
	b := dag.NewBuilder(1)
	b.AddTask("only", 7, resource.Of(1))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	const iters = 400
	s := New(Config{Iterations: iters, Seed: 3})
	_, finalTemp, cancelledAt, err := s.search(context.Background(), g, cluster.Single(resource.Of(1)))
	if err != nil {
		t.Fatal(err)
	}
	if cancelledAt != -1 {
		t.Fatalf("cancelledAt = %d, want -1", cancelledAt)
	}
	// Initial temp clamps to 1 (0.05 * makespan 7 < 1), so the floor is 0.01.
	want := math.Pow(s.cfg.coolingFactor(), iters)
	if math.Abs(finalTemp-want) > 1e-12 {
		t.Errorf("final temperature = %g, want %g (cooled every iteration)", finalTemp, want)
	}
	if finalTemp > 0.0101 {
		t.Errorf("final temperature = %g, never reached the 1%% floor", finalTemp)
	}
}

func TestCoolingUnconditionalOnCollisions(t *testing.T) {
	// On a multi-task job the i == j collisions are rare but real; the final
	// temperature must still be exactly initial * coolingFactor^N.
	cfg := workload.DefaultRandomDAGConfig()
	cfg.NumTasks = 8 // small n makes collisions frequent
	g, err := workload.RandomDAG(rand.New(rand.NewSource(2)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 120
	s := New(Config{Iterations: iters, Seed: 11})
	_, finalTemp, _, err := s.search(context.Background(), g, cluster.Single(cfg.Capacity()))
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct the annealer's starting point: the CP order, executed
	// work-conservingly.
	order := make([]dag.TaskID, g.NumTasks())
	for i := range order {
		order[i] = dag.TaskID(i)
	}
	sortByDesc(order, func(id dag.TaskID) int64 { return g.BLevel(id) })
	startMakespan, err := s.evaluate(g, cluster.Single(cfg.Capacity()), order)
	if err != nil {
		t.Fatal(err)
	}
	initial := initialTempFraction * float64(startMakespan)
	if initial < 1 {
		initial = 1
	}
	want := initial
	for i := 0; i < iters; i++ {
		want *= s.cfg.coolingFactor()
	}
	if math.Abs(finalTemp-want)/want > 1e-9 {
		t.Errorf("final temperature = %g, want %g", finalTemp, want)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.normalized()
	if f := c.coolingFactor(); c.Iterations != 500 || f <= 0 || f >= 1 {
		t.Errorf("defaults = %+v, cooling factor %g", c, f)
	}
}

func TestSortByDesc(t *testing.T) {
	ids := []dag.TaskID{0, 1, 2, 3}
	key := map[dag.TaskID]int64{0: 5, 1: 9, 2: 5, 3: 1}
	sortByDesc(ids, func(id dag.TaskID) int64 { return key[id] })
	want := []dag.TaskID{1, 0, 2, 3}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("sorted = %v, want %v", ids, want)
		}
	}
}

func TestSingleTask(t *testing.T) {
	b := dag.NewBuilder(1)
	b.AddTask("only", 7, resource.Of(1))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	out, err := New(Config{Iterations: 10, Seed: 1}).Schedule(g, cluster.Single(resource.Of(1)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Makespan != 7 {
		t.Errorf("makespan = %d, want 7", out.Makespan)
	}
}
