package spear_test

// Facade-level coverage of the observability and cancellation API: this
// file deliberately imports nothing from internal/ — everything it needs
// must be reachable through the public spear package.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"spear"
)

// TestObservabilityEndToEnd walks the whole public surface: build a job,
// train with metrics, schedule with a context, validate, and inspect both
// the stats struct and the Prometheus exposition.
func TestObservabilityEndToEnd(t *testing.T) {
	// Fan-out shape: a root with four parallel children and a sink, on a
	// cluster that fits only two children at once — so the search faces
	// real choices (forced-move-only chains never trigger rollouts).
	b := spear.NewJobBuilder(2)
	root := b.AddTask("root", 2, spear.Resources(1, 1))
	sink := b.AddTask("sink", 2, spear.Resources(1, 1))
	for i := 0; i < 4; i++ {
		mid := b.AddTask("mid", int64(i%3+1), spear.Resources(2, 2))
		b.AddDep(root, mid)
		b.AddDep(mid, sink)
	}
	job, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	capacity := spear.Resources(4, 4)

	reg := spear.NewMetricsRegistry()
	tm := spear.NewTrainMetrics(reg)
	net, _, _, err := spear.TrainModel(spear.ModelConfig{
		Feat:         tinyFeatures(),
		TrainJobs:    2,
		TasksPerJob:  8,
		PretrainCfg:  spear.PretrainConfig{Epochs: 2},
		ReinforceCfg: spear.ReinforceConfig{Epochs: 2, Rollouts: 2},
		Seed:         2,
		Metrics:      tm,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := tm.Stats()
	if st.Trajectories == 0 || st.Steps == 0 || st.GradUpdates == 0 {
		t.Errorf("train stats not populated: %+v", st)
	}
	if st.MeanGradNorm <= 0 {
		t.Errorf("MeanGradNorm = %g, want > 0", st.MeanGradNorm)
	}
	if st.SampleTime <= 0 || st.ReinforceTime <= 0 || st.PretrainTime <= 0 {
		t.Errorf("train phase timers not populated: %+v", st)
	}

	scheduler, err := spear.NewSpear(net, tinyFeatures(), spear.SpearConfig{
		InitialBudget: 20, MinBudget: 5, Seed: 2, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := scheduler.ScheduleContext(context.Background(), job, spear.SingleMachine(capacity))
	if err != nil {
		t.Fatal(err)
	}
	if err := spear.Validate(job, spear.SingleMachine(capacity), out); err != nil {
		t.Fatal(err)
	}

	stats := scheduler.LastStats()
	if stats.Decisions == 0 || stats.Rollouts == 0 {
		t.Errorf("search stats not populated: %+v", stats)
	}

	snap := scheduler.Metrics()
	if v, ok := snap.Value("spear_search_decisions_total"); !ok || v == 0 {
		t.Errorf("spear_search_decisions_total = %g (present=%v), want > 0", v, ok)
	}
	// Training and search share one registry, so the snapshot carries both.
	if v, ok := snap.Value("spear_train_trajectories_total"); !ok || v == 0 {
		t.Errorf("spear_train_trajectories_total = %g (present=%v), want > 0", v, ok)
	}
	var sb strings.Builder
	if err := snap.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE spear_search_decisions_total counter",
		"# TYPE spear_search_tree_depth gauge",
		"spear_sim_tasks_placed_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus exposition missing %q", want)
		}
	}
}

// TestPreCancelledContextThroughFacade is the regression test for the
// cancellation contract: a pre-cancelled context must return promptly with
// an incumbent schedule and an error matching context.Canceled.
func TestPreCancelledContextThroughFacade(t *testing.T) {
	job, err := spear.MotivatingExample(100)
	if err != nil {
		t.Fatal(err)
	}
	capacity := spear.MotivatingCapacity()
	s := spear.NewMCTS(spear.MCTSConfig{InitialBudget: 1_000_000, MinBudget: 1_000_000, Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	began := time.Now()
	out, err := s.ScheduleContext(ctx, job, spear.SingleMachine(capacity))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapping context.Canceled", err)
	}
	if out == nil {
		t.Fatal("no incumbent schedule returned")
	}
	if err := spear.Validate(job, spear.SingleMachine(capacity), out); err != nil {
		t.Errorf("incumbent schedule invalid: %v", err)
	}
	if elapsed := time.Since(began); elapsed > 2*time.Second {
		t.Errorf("pre-cancelled search took %v, want prompt return", elapsed)
	}
}

// TestScheduleContextHelperFallsBack covers the package-level helper on a
// scheduler without context support (Tetris): live context falls through to
// Schedule, dead context short-circuits.
func TestScheduleContextHelperFallsBack(t *testing.T) {
	job, err := spear.MotivatingExample(10)
	if err != nil {
		t.Fatal(err)
	}
	capacity := spear.MotivatingCapacity()
	tetris := spear.NewTetris()
	if _, ok := tetris.(spear.ContextScheduler); ok {
		t.Fatal("Tetris unexpectedly implements ContextScheduler; pick another fallback scheduler")
	}
	out, err := spear.ScheduleContext(context.Background(), tetris, job, spear.SingleMachine(capacity))
	if err != nil {
		t.Fatal(err)
	}
	if err := spear.Validate(job, spear.SingleMachine(capacity), out); err != nil {
		t.Error(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := spear.ScheduleContext(ctx, tetris, job, spear.SingleMachine(capacity)); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestSentinelErrorsThroughFacade classifies failures via the re-exported
// sentinels with errors.Is, without touching internal packages.
func TestSentinelErrorsThroughFacade(t *testing.T) {
	cfg := spear.DefaultRandomJobConfig()
	cfg.NumTasks = 30
	jobs, err := spear.RandomJobs(3, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	job, capacity := jobs[0], cfg.Capacity()

	solver := spear.NewOptimal(50) // tiny budget: must run out on 30 tasks
	out, err := solver.Schedule(job, spear.SingleMachine(capacity))
	if !errors.Is(err, spear.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want spear.ErrBudgetExceeded", err)
	}
	if out == nil || out.Makespan <= 0 {
		t.Error("no incumbent schedule alongside the budget error")
	}

	if err := spear.Validate(job, spear.SingleMachine(capacity), nil); !errors.Is(err, spear.ErrNilSchedule) {
		t.Errorf("Validate(nil) = %v, want ErrNilSchedule", err)
	}
	if err := spear.Validate(job, spear.SingleMachine(capacity), &spear.Schedule{}); !errors.Is(err, spear.ErrMissingTask) {
		t.Errorf("Validate(empty) = %v, want ErrMissingTask", err)
	}
}

// TestMetricsWithConcurrentSchedulers hammers one shared registry from
// several schedulers running concurrently; under -race this gates the
// lock-free counter paths end to end.
func TestMetricsWithConcurrentSchedulers(t *testing.T) {
	cfg := spear.DefaultRandomJobConfig()
	cfg.NumTasks = 15
	jobs, err := spear.RandomJobs(5, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	capacity := cfg.Capacity()

	reg := spear.NewMetricsRegistry()
	done := make(chan error, len(jobs))
	for i, job := range jobs {
		go func(i int, job *spear.Job) {
			// Four rollouts per expansion multiply each scheduler's
			// updates to the shared counters.
			s := spear.NewMCTS(spear.MCTSConfig{
				InitialBudget: 30, MinBudget: 10, Seed: int64(i),
				RolloutsPerExpansion: 4, Obs: reg,
			})
			_, err := s.Schedule(job, spear.SingleMachine(capacity))
			done <- err
		}(i, job)
	}
	for range jobs {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if v, _ := snap.Value("spear_search_rollouts_total"); v == 0 {
		t.Error("spear_search_rollouts_total = 0 after concurrent runs")
	}
	if v, _ := snap.Value("spear_search_time_count"); v != float64(len(jobs)) {
		t.Errorf("spear_search_time_count = %g, want %d", v, len(jobs))
	}
}

// TestCancellationReturnsIncumbent states the ContextScheduler contract as
// a property over every context-aware scheduler of the facade: cancelled
// before the call or about 20 ms into it, ScheduleContext returns within
// 2 s of the cancel, with a schedule that passes Validate and an error
// wrapping context.Canceled. Every budget is sized so an uncancelled call
// runs for minutes, so only a cancellation poll on the search's path can
// end it in time. A call that misses the deadline panics: its goroutine
// would otherwise keep searching, unbounded, under the tests that follow,
// and the panic's goroutine dump shows the loop that never polled.
func TestCancellationReturnsIncumbent(t *testing.T) {
	cfg := spear.DefaultRandomJobConfig()
	cfg.NumTasks = 40
	job, err := spear.RandomJob(9, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := spear.SingleMachine(cfg.Capacity())
	const budget = 1 << 22 // iterations per decision
	mcts := func(c spear.MCTSConfig) func() (spear.ContextScheduler, error) {
		c.InitialBudget, c.MinBudget, c.Seed = budget, budget, 9
		return func() (spear.ContextScheduler, error) { return spear.NewMCTS(c), nil }
	}
	rows := []struct {
		name string
		new  func() (spear.ContextScheduler, error)
	}{
		{"spear", func() (spear.ContextScheduler, error) {
			feat := spear.DefaultFeatures()
			net, err := spear.NewNetwork(feat, 9)
			if err != nil {
				return nil, err
			}
			return spear.NewSpear(net, feat, spear.SpearConfig{InitialBudget: budget, MinBudget: budget, Seed: 9})
		}},
		{"mcts", mcts(spear.MCTSConfig{})},
		{"mcts-root2", mcts(spear.MCTSConfig{RootParallelism: 2})},
		{"mcts-tree2", mcts(spear.MCTSConfig{TreeParallelism: 2})},
		{"mcts-tt", mcts(spear.MCTSConfig{UseTranspositions: true})},
		{"optimal", func() (spear.ContextScheduler, error) { return spear.NewOptimal(1 << 62), nil }},
		{"annealing", func() (spear.ContextScheduler, error) { return spear.NewAnnealing(1<<40, 9), nil }},
	}
	arms := []struct {
		name  string
		after time.Duration // how long the call runs before the cancel
	}{
		{"pre-cancelled", 0},
		{"mid-search", 20 * time.Millisecond},
	}
	type result struct {
		out *spear.Schedule
		err error
	}
	for _, row := range rows {
		for _, arm := range arms {
			t.Run(row.name+"/"+arm.name, func(t *testing.T) {
				s, err := row.new()
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if arm.after == 0 {
					cancel()
				} else {
					time.AfterFunc(arm.after, cancel)
				}
				done := make(chan result, 1)
				go func() {
					out, err := s.ScheduleContext(ctx, job, spec)
					done <- result{out, err}
				}()
				var r result
				select {
				case r = <-done:
				case <-time.After(arm.after + 2*time.Second):
					panic(t.Name() + ": ScheduleContext still running 2s after the cancel")
				}
				if !errors.Is(r.err, context.Canceled) {
					t.Fatalf("err = %v, want wrapping context.Canceled", r.err)
				}
				if err := spear.Validate(job, spec, r.out); err != nil {
					t.Errorf("incumbent: %v", err)
				}
			})
		}
	}
}
