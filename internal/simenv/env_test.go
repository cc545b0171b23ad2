package simenv

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/resource"
	"spear/internal/sched"
)

// chain builds t0 -> t1 -> t2 with runtimes 2, 3, 1 and unit demands.
func chain(t *testing.T) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder(1)
	t0 := b.AddTask("t0", 2, resource.Of(1))
	t1 := b.AddTask("t1", 3, resource.Of(1))
	t2 := b.AddTask("t2", 1, resource.Of(1))
	b.AddDep(t0, t1)
	b.AddDep(t1, t2)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// fanout builds root -> {a, b, c} with distinct runtimes and demands.
func fanout(t *testing.T) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder(2)
	root := b.AddTask("root", 1, resource.Of(1, 1))
	a := b.AddTask("a", 2, resource.Of(5, 2))
	bb := b.AddTask("b", 4, resource.Of(3, 3))
	c := b.AddTask("c", 3, resource.Of(4, 6))
	b.AddDep(root, a)
	b.AddDep(root, bb)
	b.AddDep(root, c)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func mustEnv(t *testing.T, g *dag.Graph, capacity resource.Vector, cfg Config) *Env {
	t.Helper()
	e, err := New(g, capacity, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	g := chain(t)
	if _, err := New(g, resource.Of(0), Config{}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(g, resource.Of(1, 1), Config{}); !errors.Is(err, ErrInfeasible) {
		// demand dims (1) != capacity dims (2): MaxDemand won't fit.
		t.Errorf("dim mismatch err = %v, want ErrInfeasible", err)
	}
	if _, err := New(g, resource.Of(1), Config{Window: -1}); err == nil {
		t.Error("negative window accepted")
	}

	// Demand larger than capacity.
	b := dag.NewBuilder(1)
	b.AddTask("fat", 1, resource.Of(10))
	fat, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(fat, resource.Of(5), Config{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("oversized demand err = %v, want ErrInfeasible", err)
	}
}

func TestChainEpisode(t *testing.T) {
	g := chain(t)
	e := mustEnv(t, g, resource.Of(1), Config{Mode: NextCompletion})

	if e.Done() {
		t.Fatal("fresh env already done")
	}
	if e.NumVisible() != 1 || e.VisibleTask(0) != 0 {
		t.Fatalf("%d visible ready tasks, want only task 0", e.NumVisible())
	}

	// Only t0 is ready; schedule it.
	legal := e.LegalActions()
	if len(legal) != 1 || legal[0] != Action(0) {
		t.Fatalf("LegalActions = %v, want [0] (no Process while idle)", legal)
	}
	if err := e.Step(Action(0)); err != nil {
		t.Fatalf("Step schedule: %v", err)
	}
	if e.Now() != 0 {
		t.Errorf("clock moved on schedule action: now = %d", e.Now())
	}
	if e.NumRunning() != 1 {
		t.Errorf("NumRunning = %d, want 1", e.NumRunning())
	}

	// Now only Process is legal (nothing else ready).
	legal = e.LegalActions()
	if len(legal) != 1 || legal[0] != Process {
		t.Fatalf("LegalActions = %v, want [Process]", legal)
	}
	if err := e.Step(Process); err != nil {
		t.Fatalf("Step process: %v", err)
	}
	if e.Now() != 2 {
		t.Errorf("NextCompletion advanced to %d, want 2", e.Now())
	}
	if e.NumVisible() != 1 || e.VisibleTask(0) != 1 {
		t.Fatalf("after t0 completes %d visible ready tasks, want only task 1", e.NumVisible())
	}

	// Finish the episode.
	steps := 0
	for !e.Done() {
		legal := e.LegalActions()
		if len(legal) == 0 {
			t.Fatal("stuck: no legal actions")
		}
		if err := e.Step(legal[0]); err != nil {
			t.Fatalf("Step: %v", err)
		}
		if steps++; steps > 100 {
			t.Fatal("episode did not terminate")
		}
	}
	if got := e.Makespan(); got != 6 {
		t.Errorf("Makespan = %d, want 6 (2+3+1 serial chain)", got)
	}

	s, err := e.Schedule("test")
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := sched.Validate(g, cluster.Single(resource.Of(1)), s); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestOneSlotMode(t *testing.T) {
	g := chain(t)
	e := mustEnv(t, g, resource.Of(1), Config{Mode: OneSlot})
	if err := e.Step(Action(0)); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(Process); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 1 {
		t.Fatalf("OneSlot advanced to %d, want 1", e.Now())
	}
	// t0 still running, nothing new ready.
	if e.NumVisible() != 0 {
		t.Fatalf("%d ready tasks, want 0", e.NumVisible())
	}
	if err := e.Step(Process); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 2 || e.NumVisible() != 1 {
		t.Fatalf("now=%d ready=%d, want 2 and 1", e.Now(), e.NumVisible())
	}

	// Drive to completion; total process steps must equal the makespan.
	processSteps := int64(2)
	for !e.Done() {
		a := e.LegalActions()[0]
		if a == Process {
			processSteps++
		}
		if err := e.Step(a); err != nil {
			t.Fatal(err)
		}
	}
	if processSteps != e.Makespan() {
		t.Errorf("%d process steps, Makespan = %d; OneSlot reward bookkeeping broken",
			processSteps, e.Makespan())
	}
}

func TestLegalActionsFiltersNonFitting(t *testing.T) {
	g := fanout(t)
	e := mustEnv(t, g, resource.Of(6, 6), Config{})
	// Schedule root, process to completion.
	if err := e.Step(Action(0)); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(Process); err != nil {
		t.Fatal(err)
	}
	// a(5,2), b(3,3), c(4,6) all ready; capacity (6,6).
	if got := e.NumVisible(); got != 3 {
		t.Fatalf("%d visible ready tasks, want 3", got)
	}
	// Schedule a: remaining (1,4). b and c no longer fit -> only Process.
	if err := e.Step(Action(0)); err != nil {
		t.Fatal(err)
	}
	legal := e.LegalActions()
	if len(legal) != 1 || legal[0] != Process {
		t.Fatalf("LegalActions = %v, want [Process] (b, c do not fit)", legal)
	}
}

func TestIllegalActions(t *testing.T) {
	g := fanout(t)
	e := mustEnv(t, g, resource.Of(6, 6), Config{})

	if err := e.Step(Process); !errors.Is(err, ErrIllegalAction) {
		t.Errorf("Process while idle err = %v, want ErrIllegalAction", err)
	}
	if err := e.Step(Action(5)); !errors.Is(err, ErrIllegalAction) {
		t.Errorf("out-of-range schedule err = %v, want ErrIllegalAction", err)
	}

	// Schedule root and a non-fitting sibling.
	if err := e.Step(Action(0)); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(Process); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(Action(0)); err != nil { // a (5,2)
		t.Fatal(err)
	}
	if err := e.Step(Action(0)); !errors.Is(err, ErrIllegalAction) { // b (3,3) does not fit
		t.Errorf("non-fitting schedule err = %v, want ErrIllegalAction", err)
	}
	// Failed step must not corrupt state: b still ready.
	if e.NumVisible() != 2 {
		t.Errorf("%d ready tasks after failed step, want 2", e.NumVisible())
	}

	// A runtime longer than the grid may span names the cluster's reason.
	b := dag.NewBuilder(1)
	b.AddTask("long", cluster.MaxSpan+1, resource.Of(1))
	long, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e = mustEnv(t, long, resource.Of(1), Config{})
	if err := e.Step(Action(0)); !errors.Is(err, ErrIllegalAction) || !errors.Is(err, cluster.ErrTooLong) {
		t.Errorf("over-long runtime err = %v, want ErrIllegalAction and cluster.ErrTooLong", err)
	}
}

func TestStepAfterDone(t *testing.T) {
	b := dag.NewBuilder(1)
	b.AddTask("only", 1, resource.Of(1))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := mustEnv(t, g, resource.Of(1), Config{})
	if err := e.Step(Action(0)); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(Process); err != nil {
		t.Fatal(err)
	}
	if !e.Done() {
		t.Fatal("not done")
	}
	if err := e.Step(Process); !errors.Is(err, ErrEpisodeOver) {
		t.Errorf("Step after done err = %v, want ErrEpisodeOver", err)
	}
	if e.LegalActions() != nil {
		t.Errorf("LegalActions after done = %v, want nil", e.LegalActions())
	}
}

func TestScheduleBeforeDone(t *testing.T) {
	e := mustEnv(t, chain(t), resource.Of(1), Config{})
	if _, err := e.Schedule("x"); !errors.Is(err, ErrNotFinished) {
		t.Errorf("Schedule before done err = %v, want ErrNotFinished", err)
	}
}

func TestWindowAndBacklog(t *testing.T) {
	// A root fanning out to 5 children with window 2.
	b := dag.NewBuilder(1)
	root := b.AddTask("root", 1, resource.Of(1))
	for i := 0; i < 5; i++ {
		c := b.AddTask("child", 1, resource.Of(1))
		b.AddDep(root, c)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := mustEnv(t, g, resource.Of(10), Config{Window: 2})
	if err := e.Step(Action(0)); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(Process); err != nil {
		t.Fatal(err)
	}
	if got := e.NumVisible(); got != 2 {
		t.Fatalf("%d visible ready tasks, want 2", got)
	}
	if got := e.Backlog(); got != 3 {
		t.Fatalf("Backlog = %d, want 3", got)
	}
	// Scheduling a visible task promotes one from the backlog.
	if err := e.Step(Action(0)); err != nil {
		t.Fatal(err)
	}
	if got := e.Backlog(); got != 2 {
		t.Errorf("Backlog after schedule = %d, want 2", got)
	}
	if got := e.NumVisible(); got != 2 {
		t.Errorf("window not refilled: %d visible", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := fanout(t)
	e := mustEnv(t, g, resource.Of(6, 6), Config{})
	if err := e.Step(Action(0)); err != nil {
		t.Fatal(err)
	}
	c := e.Clone()
	if err := c.Step(Process); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(Action(0)); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 0 || e.NumRunning() != 1 || e.NumVisible() != 0 {
		t.Errorf("mutating clone changed original: now=%d running=%d ready=%d",
			e.Now(), e.NumRunning(), e.NumVisible())
	}
	if c.NumRunning() != 1 || c.NumVisible() != 2 {
		t.Errorf("clone state wrong: running=%d ready=%d", c.NumRunning(), c.NumVisible())
	}
}

// greedyPolicy schedules the first legal task, else processes.
type greedyPolicy struct{}

func (greedyPolicy) Name() string { return "greedy-first" }

func (greedyPolicy) Choose(_ *Env, legal []Action, _ *rand.Rand) (Action, error) {
	return legal[0], nil
}

// randomPolicy picks a uniformly random legal action.
type randomPolicy struct{}

func (randomPolicy) Name() string { return "random" }

func (randomPolicy) Choose(_ *Env, legal []Action, rng *rand.Rand) (Action, error) {
	return legal[rng.Intn(len(legal))], nil
}

// playEpisode drives e with p to the end of its episode and returns the
// schedule, labelled with the policy's name.
func playEpisode(e *Env, p Policy, rng *rand.Rand) (*sched.Schedule, error) {
	if _, err := NewRolloutContext(p).Rollout(e, rng); err != nil {
		return nil, err
	}
	return e.Schedule(p.Name())
}

func TestRunProducesValidSchedule(t *testing.T) {
	g := fanout(t)
	capacity := resource.Of(6, 6)
	e := mustEnv(t, g, capacity, Config{})
	s, err := playEpisode(e, greedyPolicy{}, nil)
	if err != nil {
		t.Fatalf("playEpisode: %v", err)
	}
	if err := sched.Validate(g, cluster.Single(capacity), s); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if s.Algorithm != "greedy-first" {
		t.Errorf("Algorithm = %q", s.Algorithm)
	}
	if s.Makespan < g.CriticalPath() {
		t.Errorf("makespan %d below critical path %d", s.Makespan, g.CriticalPath())
	}
}

func TestRolloutMatchesRun(t *testing.T) {
	g := fanout(t)
	capacity := resource.Of(6, 6)
	e1 := mustEnv(t, g, capacity, Config{})
	e2 := e1.Clone()
	s, err := playEpisode(e1, greedyPolicy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewRolloutContext(greedyPolicy{}).Rollout(e2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m != s.Makespan {
		t.Errorf("Rollout makespan %d != Run makespan %d", m, s.Makespan)
	}
}

func TestAccessors(t *testing.T) {
	g := fanout(t)
	capacity := resource.Of(6, 6)
	e := mustEnv(t, g, capacity, Config{})

	if e.Graph() != g {
		t.Error("Graph accessor broken")
	}
	for d := range capacity {
		if got := e.CapacityDim(d); got != capacity[d] {
			t.Errorf("CapacityDim(%d) = %d, want %d", d, got, capacity[d])
		}
	}

	if _, ok := e.EarliestRunningFinish(); ok {
		t.Error("EarliestRunningFinish with idle cluster reported ok")
	}
	if e.TaskDone(0) || e.TaskRunning(0) {
		t.Error("fresh task reported done/running")
	}
	if _, ok := e.TaskFinish(0); ok {
		t.Error("TaskFinish for unstarted task reported ok")
	}

	// Schedule the root: running with finish at its runtime.
	if err := e.Step(Action(0)); err != nil {
		t.Fatal(err)
	}
	if !e.TaskRunning(0) || e.TaskDone(0) {
		t.Error("scheduled task not running")
	}
	if fin, ok := e.TaskFinish(0); !ok || fin != g.Task(0).Runtime {
		t.Errorf("TaskFinish = %d, %v", fin, ok)
	}
	if fin, ok := e.EarliestRunningFinish(); !ok || fin != g.Task(0).Runtime {
		t.Errorf("EarliestRunningFinish = %d, %v", fin, ok)
	}
	if avail := e.AvailableNowInto(nil); !avail.Equal(resource.Of(5, 5)) {
		t.Errorf("AvailableNowInto = %v", avail)
	}

	img := make([]float64, 2*4)
	e.FillOccupancy(4, 2, img)
	if img[0] <= 0 {
		t.Errorf("occupancy image empty despite running task: %v", img)
	}

	if err := e.Step(Process); err != nil {
		t.Fatal(err)
	}
	if !e.TaskDone(0) {
		t.Error("task not done after completion")
	}
	if fin, ok := e.TaskFinish(0); !ok || fin != g.Task(0).Runtime {
		t.Errorf("TaskFinish after done = %d, %v", fin, ok)
	}
}

// brokenPolicy returns actions outside the legal set — failure injection
// for the Run/Rollout error paths.
type brokenPolicy struct{ action Action }

func (brokenPolicy) Name() string { return "broken" }

func (p brokenPolicy) Choose(_ *Env, _ []Action, _ *rand.Rand) (Action, error) {
	return p.action, nil
}

// failingPolicy errors outright.
type failingPolicy struct{}

func (failingPolicy) Name() string { return "failing" }

func (failingPolicy) Choose(_ *Env, _ []Action, _ *rand.Rand) (Action, error) {
	return 0, errors.New("boom")
}

func TestRunSurfacesPolicyErrors(t *testing.T) {
	g := fanout(t)
	capacity := resource.Of(6, 6)

	e := mustEnv(t, g, capacity, Config{})
	if _, err := playEpisode(e, failingPolicy{}, nil); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("failing policy err = %v", err)
	}

	e = mustEnv(t, g, capacity, Config{})
	if _, err := playEpisode(e, brokenPolicy{action: Action(99)}, nil); !errors.Is(err, ErrIllegalAction) {
		t.Errorf("out-of-range action err = %v", err)
	}

	// Process while idle is illegal at the very first step.
	e = mustEnv(t, g, capacity, Config{})
	if _, err := playEpisode(e, brokenPolicy{action: Process}, nil); !errors.Is(err, ErrIllegalAction) {
		t.Errorf("idle process err = %v", err)
	}

	e = mustEnv(t, g, capacity, Config{})
	if _, err := NewRolloutContext(failingPolicy{}).Rollout(e, nil); err == nil {
		t.Error("Rollout swallowed the policy error")
	}
}

// randomGraph builds a random layered DAG for property tests.
func randomGraph(r *rand.Rand, n int) *dag.Graph {
	b := dag.NewBuilder(2)
	ids := make([]dag.TaskID, n)
	for i := 0; i < n; i++ {
		ids[i] = b.AddTask("t", r.Int63n(9)+1, resource.Of(r.Int63n(5)+1, r.Int63n(5)+1))
	}
	for i := 1; i < n; i++ {
		// Each task depends on up to 3 random earlier tasks.
		for k := 0; k < r.Intn(4); k++ {
			b.AddDep(ids[r.Intn(i)], ids[i])
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestPropertyRandomPolicyAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 3+r.Intn(25))
		capacity := resource.Of(5+r.Int63n(6), 5+r.Int63n(6))
		mode := NextCompletion
		if r.Intn(2) == 0 {
			mode = OneSlot
		}
		e, err := New(g, capacity, Config{Window: r.Intn(4) * 5, Mode: mode})
		if err != nil {
			return false
		}
		s, err := playEpisode(e, randomPolicy{}, r)
		if err != nil {
			return false
		}
		if err := sched.Validate(g, cluster.Single(capacity), s); err != nil {
			return false
		}
		lb, err := g.MakespanLowerBound(capacity)
		if err != nil {
			return false
		}
		return s.Makespan >= lb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicEpisodes(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(7)), 30)
	capacity := resource.Of(8, 8)
	run := func() int64 {
		e, err := New(g, capacity, Config{Window: DefaultWindow})
		if err != nil {
			t.Fatal(err)
		}
		s, err := playEpisode(e, randomPolicy{}, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		return s.Makespan
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced different makespans: %d vs %d", a, b)
	}
}
