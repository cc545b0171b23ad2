package exact

import (
	"context"
	"errors"
	"testing"

	"spear/internal/cluster"
	"spear/internal/obs"
	"spear/internal/workload"
)

func TestPreCancelledContextFailsFast(t *testing.T) {
	g, err := workload.MotivatingExample(100)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := New(0)
	if _, err := s.ScheduleContext(ctx, g, cluster.Single(workload.MotivatingCapacity())); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapping context.Canceled", err)
	}
}

func TestSolverMetricsPopulated(t *testing.T) {
	g, err := workload.MotivatingExample(100)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := New(0)
	s.Obs = reg
	if _, err := s.Schedule(g, cluster.Single(workload.MotivatingCapacity())); err != nil {
		t.Fatal(err)
	}
	snap := s.Metrics()
	if got, _ := snap.Value("spear_exact_nodes_explored_total"); got != float64(s.Explored()) {
		t.Errorf("nodes explored metric = %g, want %d", got, s.Explored())
	}
	if got, _ := snap.Value("spear_exact_incumbent_improvements_total"); got == 0 {
		t.Error("incumbent improvements = 0, want > 0 (optimal 202 beats Tetris's 301)")
	}
	if got, _ := snap.Value("spear_exact_solve_time_count"); got != 1 {
		t.Errorf("solve time count = %g, want 1", got)
	}
}
