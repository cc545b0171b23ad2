package baselines

import (
	"math/rand"
	"testing"

	"spear/internal/cluster"
	"spear/internal/resource"
	"spear/internal/sched"
	"spear/internal/simenv"
)

func TestLevelByLevelWaitsForCurrentLevel(t *testing.T) {
	// Level 0: a (long). Level 1: b (child of a). Another level-0 task c
	// finishes early, making d (level 1) ready while a still runs. A
	// level-by-level scheduler must not start d before b is ready... but b
	// only becomes ready when a finishes, so d waits despite fitting.
	g := buildGraph(t, 1, []taskSpec{
		{runtime: 10, demand: []int64{2}}, // 0: a, level 0
		{runtime: 2, demand: []int64{6}},  // 1: b = child(a), level 1
		{runtime: 1, demand: []int64{2}},  // 2: c, level 0
		{runtime: 9, demand: []int64{6}},  // 3: d = child(c), level 1
	}, [][2]int{{0, 1}, {2, 3}})
	capacity := resource.Of(10)

	e, err := simenv.New(g, capacity, simenv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simenv.NewRolloutContext(LevelByLevel{}).Rollout(e, nil); err != nil {
		t.Fatal(err)
	}
	s, err := e.Schedule("level")
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, cluster.Single(capacity), s); err != nil {
		t.Fatal(err)
	}
	// d (task 3) becomes ready at t=1 and fits, but must wait for level 0
	// to drain (a finishes at 10). Placements are indexed by task ID.
	if start := s.Placements[3].Start; start < 10 {
		t.Errorf("level-1 task started at %d while level 0 still running", start)
	}
	// A work-conserving policy overlaps d with a and finishes earlier —
	// that is exactly the sub-optimality the related work describes.
	work, err := NewTetrisScheduler().Schedule(g, cluster.Single(capacity))
	if err != nil {
		t.Fatal(err)
	}
	if work.Makespan >= s.Makespan {
		t.Errorf("Tetris (%d) should beat LevelByLevel (%d) here", work.Makespan, s.Makespan)
	}
}

func TestLevelByLevelValidOnRandomGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	capacity := resource.Of(1000, 1000)
	s := NewLevelByLevelScheduler()
	for i := 0; i < 4; i++ {
		g := randomLayeredGraph(r, 30)
		out, err := s.Schedule(g, cluster.Single(capacity))
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if err := sched.Validate(g, cluster.Single(capacity), out); err != nil {
			t.Errorf("graph %d: %v", i, err)
		}
	}
}

func TestTetrisSRPTWeightZeroMatchesTetris(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	capacity := resource.Of(1000, 1000)
	for i := 0; i < 3; i++ {
		g := randomLayeredGraph(r, 25)
		pure, err := NewTetrisScheduler().Schedule(g, cluster.Single(capacity))
		if err != nil {
			t.Fatal(err)
		}
		combo, err := NewTetrisSRPTScheduler(0).Schedule(g, cluster.Single(capacity))
		if err != nil {
			t.Fatal(err)
		}
		// Tie-breaks differ slightly (Tetris breaks ties on runtime), so
		// allow small deviation but both must validate.
		if err := sched.Validate(g, cluster.Single(capacity), combo); err != nil {
			t.Fatal(err)
		}
		diff := pure.Makespan - combo.Makespan
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > 0.1*float64(pure.Makespan) {
			t.Errorf("graph %d: weight-0 combo %d far from Tetris %d", i, combo.Makespan, pure.Makespan)
		}
	}
}

func TestTetrisSRPTPrefersShortWithHighWeight(t *testing.T) {
	// Equal demands, different runtimes: with a large SRPT weight the short
	// task must be chosen even though alignments tie.
	g := buildGraph(t, 1, []taskSpec{
		{runtime: 9, demand: []int64{5}},
		{runtime: 2, demand: []int64{5}},
	}, nil)
	e, err := simenv.New(g, resource.Of(10), simenv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := TetrisSRPT{Weight: 10}.Choose(e, e.LegalActions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.VisibleTask(a.Slot()); got != 1 {
		t.Errorf("chose task %d, want 1 (short)", got)
	}
}

func TestTetrisSRPTValidSchedules(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	capacity := resource.Of(1000, 1000)
	for _, weight := range []float64{0, 0.5, 2} {
		s := NewTetrisSRPTScheduler(weight)
		g := randomLayeredGraph(r, 30)
		out, err := s.Schedule(g, cluster.Single(capacity))
		if err != nil {
			t.Fatalf("weight %v: %v", weight, err)
		}
		if err := sched.Validate(g, cluster.Single(capacity), out); err != nil {
			t.Errorf("weight %v: %v", weight, err)
		}
	}
}
