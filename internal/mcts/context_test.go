package mcts

import (
	"context"
	"errors"
	"testing"
	"time"

	"spear/internal/cluster"
	"spear/internal/obs"
	"spear/internal/sched"
)

func TestScheduleContextBackgroundMatchesSchedule(t *testing.T) {
	g, capacity := smallRandomDAG(1, 20)
	a := New(Config{InitialBudget: 40, MinBudget: 10, Seed: 1})
	b := New(Config{InitialBudget: 40, MinBudget: 10, Seed: 1})
	want, err := a.Schedule(g, cluster.Single(capacity))
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.ScheduleContext(context.Background(), g, cluster.Single(capacity))
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan {
		t.Errorf("ScheduleContext makespan %d, Schedule %d", got.Makespan, want.Makespan)
	}
}

func TestPreCancelledContextReturnsIncumbentPromptly(t *testing.T) {
	g, capacity := smallRandomDAG(2, 30)
	s := New(Config{InitialBudget: 100_000, MinBudget: 100_000, Seed: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	began := time.Now()
	out, err := s.ScheduleContext(ctx, g, cluster.Single(capacity))
	elapsed := time.Since(began)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapping context.Canceled", err)
	}
	if out == nil {
		t.Fatal("no incumbent schedule returned on cancellation")
	}
	if err := sched.Validate(g, cluster.Single(capacity), out); err != nil {
		t.Errorf("cancelled incumbent is invalid: %v", err)
	}
	if !s.LastStats().Cancelled {
		t.Error("Stats.Cancelled = false after cancellation")
	}
	// A pre-cancelled context must short-circuit the search: a 100k-budget
	// search takes far longer than a single rollout completion.
	if elapsed > 2*time.Second {
		t.Errorf("pre-cancelled ScheduleContext took %v", elapsed)
	}
}

func TestStatsAndMetricsPopulated(t *testing.T) {
	g, capacity := smallRandomDAG(4, 25)
	reg := obs.NewRegistry()
	s := New(Config{InitialBudget: 60, MinBudget: 10, Seed: 4, Obs: reg})
	if _, err := s.Schedule(g, cluster.Single(capacity)); err != nil {
		t.Fatal(err)
	}
	st := s.LastStats()
	if st.Decisions == 0 || st.Iterations == 0 || st.Expansions == 0 || st.Rollouts == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
	if st.MaxDepth < st.Decisions {
		t.Errorf("MaxDepth %d < Decisions %d", st.MaxDepth, st.Decisions)
	}
	if st.Elapsed <= 0 || st.SimsPerSec <= 0 {
		t.Errorf("timing not populated: elapsed %v, sims/sec %g", st.Elapsed, st.SimsPerSec)
	}
	if st.Cancelled {
		t.Error("Cancelled = true on an uncancelled run")
	}

	snap := s.Metrics()
	checks := map[string]float64{
		"spear_search_decisions_total":  float64(st.Decisions),
		"spear_search_iterations_total": float64(st.Iterations),
		"spear_search_expansions_total": float64(st.Expansions),
		"spear_search_rollouts_total":   float64(st.Rollouts),
		"spear_search_tree_depth":       float64(st.MaxDepth),
	}
	for name, want := range checks {
		got, ok := snap.Value(name)
		if !ok {
			t.Errorf("metric %s missing from snapshot", name)
			continue
		}
		if got != want {
			t.Errorf("metric %s = %g, want %g", name, got, want)
		}
	}
	if got, _ := snap.Value("spear_sim_tasks_placed_total"); got == 0 {
		t.Error("spear_sim_tasks_placed_total = 0, want > 0")
	}
	if got, _ := snap.Value("spear_search_time_count"); got != 1 {
		t.Errorf("spear_search_time_count = %g, want 1", got)
	}
}

func TestSharedRegistryAggregatesAcrossSchedulers(t *testing.T) {
	g, capacity := smallRandomDAG(5, 20)
	reg := obs.NewRegistry()
	a := New(Config{InitialBudget: 30, MinBudget: 10, Seed: 5, Obs: reg})
	b := New(Config{InitialBudget: 30, MinBudget: 10, Seed: 6, Obs: reg})
	if _, err := a.Schedule(g, cluster.Single(capacity)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Schedule(g, cluster.Single(capacity)); err != nil {
		t.Fatal(err)
	}
	want := float64(a.LastStats().Decisions + b.LastStats().Decisions)
	if got, _ := reg.Snapshot().Value("spear_search_decisions_total"); got != want {
		t.Errorf("shared registry decisions = %g, want %g", got, want)
	}
}
