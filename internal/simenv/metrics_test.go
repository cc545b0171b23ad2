package simenv

import (
	"errors"
	"math/rand"
	"testing"

	"spear/internal/obs"
	"spear/internal/resource"
)

func TestMetricsCountPlacementsAndAdvances(t *testing.T) {
	g := fanout(t)
	m := obs.NewSimMetrics(nil)
	e := mustEnv(t, g, resource.Of(8, 8), Config{Metrics: m})
	rng := rand.New(rand.NewSource(41))
	var processSteps int64
	for !e.Done() {
		legal := e.LegalActions()
		a := legal[rng.Intn(len(legal))]
		if a == Process {
			processSteps++
		}
		if err := e.Step(a); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.TasksPlaced.Load(); got != int64(g.NumTasks()) {
		t.Errorf("TasksPlaced = %d, want %d", got, g.NumTasks())
	}
	if got := m.SlotAdvances.Load(); got != processSteps {
		t.Errorf("SlotAdvances = %d, want %d Process steps", got, processSteps)
	}
	if m.SlotGrow.Load() == 0 {
		t.Error("SlotGrow = 0, want > 0 (slots were allocated)")
	}
}

func TestMetricsCountClonesAndReuse(t *testing.T) {
	g := fanout(t)
	m := obs.NewSimMetrics(nil)
	base := mustEnv(t, g, resource.Of(8, 8), Config{Metrics: m})

	fresh := base.Clone()
	if got := m.EnvClones.Load(); got != 1 {
		t.Errorf("EnvClones after Clone = %d, want 1", got)
	}
	if got := m.EnvCloneReuse.Load(); got != 0 {
		t.Errorf("EnvCloneReuse after fresh Clone = %d, want 0", got)
	}
	base.CloneInto(fresh)
	if got := m.EnvClones.Load(); got != 2 {
		t.Errorf("EnvClones after CloneInto = %d, want 2", got)
	}
	if got := m.EnvCloneReuse.Load(); got != 1 {
		t.Errorf("EnvCloneReuse after CloneInto = %d, want 1", got)
	}
}

// quittingPolicy plays random legal actions for its first n choices, then
// fails: either by erroring or, with illegal set, by naming an action Step
// rejects.
type quittingPolicy struct {
	n       *int
	illegal bool
}

func (quittingPolicy) Name() string { return "quitting" }

func (p quittingPolicy) Choose(_ *Env, legal []Action, rng *rand.Rand) (Action, error) {
	if *p.n == 0 {
		if p.illegal {
			return At(1<<machineShift-1, 0), nil
		}
		return 0, errors.New("quit")
	}
	*p.n--
	return legal[rng.Intn(len(legal))], nil
}

// TestStepCountersCountEveryAppliedStepOnce pins the flush contract of the
// tallied counters: whether an episode is played by Rollout, stepped by
// hand, or cut short by an error on either of Rollout's failing paths,
// TasksPlaced + SlotAdvances is exactly the number of steps applied.
func TestStepCountersCountEveryAppliedStepOnce(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(5)), 30)
	total := func(m *obs.SimMetrics) int64 { return m.TasksPlaced.Load() + m.SlotAdvances.Load() }

	m := obs.NewSimMetrics(nil)
	e := mustEnv(t, g, resource.Of(8, 8), Config{Metrics: m})
	if _, err := NewRolloutContext(randomPolicy{}).RolloutFrom(e, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if got := m.TasksPlaced.Load(); got != int64(g.NumTasks()) {
		t.Errorf("after a rollout: TasksPlaced = %d, want %d", got, g.NumTasks())
	}
	if m.SlotAdvances.Load() == 0 {
		t.Error("after a rollout: SlotAdvances = 0")
	}

	m = obs.NewSimMetrics(nil)
	e = mustEnv(t, g, resource.Of(8, 8), Config{Metrics: m})
	rng := rand.New(rand.NewSource(2))
	var steps int64
	for !e.Done() {
		playSteps(t, e, 1, rng)
		if steps++; total(m) != steps {
			t.Fatalf("after %d public Steps the counters total %d", steps, total(m))
		}
	}
	if err := e.Step(Process); err == nil || total(m) != steps {
		t.Errorf("a rejected Step: err %v, counters total %d", err, total(m))
	}

	for _, illegal := range []bool{false, true} {
		for _, applied := range []int{0, 1, 17} {
			m := obs.NewSimMetrics(nil)
			e := mustEnv(t, g, resource.Of(8, 8), Config{Metrics: m})
			n := applied
			if _, err := NewRolloutContext(quittingPolicy{n: &n, illegal: illegal}).Rollout(e, rand.New(rand.NewSource(3))); err == nil {
				t.Fatal("the rollout did not fail")
			}
			if got := total(m); got != int64(applied) {
				t.Errorf("rollout failing (illegal=%v) after %d steps: counters total %d", illegal, applied, got)
			}
			// Nothing is left in the env to be flushed a second time.
			playSteps(t, e, 1, rand.New(rand.NewSource(4)))
			if got := total(m); got != int64(applied)+1 {
				t.Errorf("one Step after the failed rollout: counters total %d, want %d", got, applied+1)
			}
		}
	}
}

// TestRolloutAllocFreeWithMetrics is TestStepAllocFree with instrumentation
// enabled: the zero-allocation promise of the rollout fast path must hold
// with metrics on, since the step counts are plain fields of the scratch
// env, added to the pre-allocated counters once per rollout.
func TestRolloutAllocFreeWithMetrics(t *testing.T) {
	g := fanout(t)
	m := obs.NewSimMetrics(nil)
	base := mustEnv(t, g, resource.Of(8, 8), Config{Metrics: m})
	rc := NewRolloutContext(randomPolicy{})
	rng := rand.New(rand.NewSource(43))
	if _, err := rc.RolloutFrom(base, rng); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := rc.RolloutFrom(base, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("RolloutFrom with metrics allocates %.1f times per run, want 0", allocs)
	}
	if m.EnvClones.Load() == 0 || m.TasksPlaced.Load() == 0 {
		t.Error("metrics stayed zero during instrumented rollouts")
	}
	if m.EnvCloneReuse.Load() == 0 {
		t.Error("EnvCloneReuse = 0, want > 0 (warm rollouts must recycle the scratch env)")
	}
}
