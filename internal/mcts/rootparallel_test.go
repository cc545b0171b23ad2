package mcts

import (
	"testing"

	"spear/internal/cluster"
	"spear/internal/obs"
	"spear/internal/sched"
)

func TestWorkerSeedsDistinct(t *testing.T) {
	if got := workerSeed(42, 0); got != 42 {
		t.Fatalf("worker 0 seed = %d, want the configured 42", got)
	}
	seen := map[int64]bool{}
	for w := 0; w < 8; w++ {
		s := workerSeed(42, w)
		if seen[s] {
			t.Fatalf("worker %d repeats seed %d", w, s)
		}
		seen[s] = true
	}
}

// TestRootParallelDeterministicGivenSeed pins the merged-root decision rule:
// the same seed and the same worker count must reproduce the schedule
// exactly, slot for slot, regardless of goroutine interleaving.
func TestRootParallelDeterministicGivenSeed(t *testing.T) {
	g, capacity := smallRandomDAG(13, 25)
	run := func() *sched.Schedule {
		s := New(Config{InitialBudget: 60, MinBudget: 12, Seed: 5, RootParallelism: 4})
		out, err := s.Schedule(g, cluster.Single(capacity))
		if err != nil {
			t.Fatal(err)
		}
		if got := s.LastStats().RootWorkers; got != 4 {
			t.Fatalf("RootWorkers = %d, want 4", got)
		}
		return out
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan {
		t.Fatalf("same seed gave different makespans: %d vs %d", a.Makespan, b.Makespan)
	}
	if len(a.Placements) != len(b.Placements) {
		t.Fatalf("same seed gave different schedules: %d vs %d placements", len(a.Placements), len(b.Placements))
	}
	for i := range a.Placements {
		if a.Placements[i] != b.Placements[i] {
			t.Fatalf("same seed diverged at placement %d: %+v vs %+v", i, a.Placements[i], b.Placements[i])
		}
	}
}

// TestRootParallelValidAndComparable checks that K root workers produce
// valid schedules in the same quality regime as the single tree: at least
// the graph lower bound, and no worse than a tiny-budget single-tree search
// (the same weak-but-stable tolerance TestMCTSMoreBudgetNotWorse uses).
func TestRootParallelValidAndComparable(t *testing.T) {
	g, capacity := smallRandomDAG(42, 30)
	tiny := New(Config{InitialBudget: 5, MinBudget: 2, Seed: 7})
	outTiny, err := tiny.Schedule(g, cluster.Single(capacity))
	if err != nil {
		t.Fatal(err)
	}
	lb, err := g.MakespanLowerBound(capacity)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4} {
		s := New(Config{InitialBudget: 400, MinBudget: 80, Seed: 7, RootParallelism: k})
		out, err := s.Schedule(g, cluster.Single(capacity))
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if err := sched.Validate(g, cluster.Single(capacity), out); err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if out.Makespan < lb {
			t.Errorf("K=%d: makespan %d below lower bound %d", k, out.Makespan, lb)
		}
		if out.Makespan > outTiny.Makespan {
			t.Errorf("K=%d budget-400 makespan %d worse than budget-5 single tree %d",
				k, out.Makespan, outTiny.Makespan)
		}
		stats := s.LastStats()
		if stats.RootWorkers != k {
			t.Errorf("K=%d: RootWorkers = %d", k, stats.RootWorkers)
		}
		if stats.Iterations == 0 || stats.Expansions == 0 {
			t.Errorf("K=%d: empty stats %+v", k, stats)
		}
	}
}

// TestRootParallelBudgetSplit checks the Eq. 4 budget conservation: K trees
// spend exactly the iterations one tree would (budget/K each plus the
// remainder spread over the first workers), decision by decision.
func TestRootParallelBudgetSplit(t *testing.T) {
	g, capacity := smallRandomDAG(17, 20)
	single := New(Config{InitialBudget: 45, MinBudget: 9, Seed: 3})
	if _, err := single.Schedule(g, cluster.Single(capacity)); err != nil {
		t.Fatal(err)
	}
	parallel := New(Config{InitialBudget: 45, MinBudget: 9, Seed: 3, RootParallelism: 4})
	if _, err := parallel.Schedule(g, cluster.Single(capacity)); err != nil {
		t.Fatal(err)
	}
	// The two searches can commit different moves and so face different
	// decision sequences; compare per-decision spend instead of totals.
	ss, ps := single.LastStats(), parallel.LastStats()
	sd := ss.Decisions - ss.ForcedMoves
	pd := ps.Decisions - ps.ForcedMoves
	if sd == 0 || pd == 0 {
		t.Fatalf("no searched decisions: single %d, parallel %d", sd, pd)
	}
	if ss.Iterations/sd != ps.Iterations/pd {
		t.Errorf("per-decision iteration spend differs: single %d/%d, parallel %d/%d",
			ss.Iterations, sd, ps.Iterations, pd)
	}
}

// TestRootParallelRaceHammer exercises K concurrent tree workers sharing one
// obs registry and one simulator metric bundle, each playing two rollouts
// per expansion. Run with -race this hammers every shared counter; the
// assertions only sanity-check the aggregate counters.
func TestRootParallelRaceHammer(t *testing.T) {
	g, capacity := smallRandomDAG(23, 25)
	reg := obs.NewRegistry()
	s := New(Config{
		InitialBudget: 80, MinBudget: 16, Seed: 9,
		RootParallelism: 4, RolloutsPerExpansion: 2,
		Obs: reg,
	})
	out, err := s.Schedule(g, cluster.Single(capacity))
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, cluster.Single(capacity), out); err != nil {
		t.Fatal(err)
	}
	stats := s.LastStats()
	snap := reg.Snapshot()
	if v, ok := snap.Value("spear_search_iterations_total"); !ok || v != float64(stats.Iterations) {
		t.Errorf("registry iterations %v (ok=%v), stats %d", v, ok, stats.Iterations)
	}
	if v, ok := snap.Value("spear_search_rollouts_total"); !ok || v != float64(stats.Rollouts) {
		t.Errorf("registry rollouts %v (ok=%v), stats %d", v, ok, stats.Rollouts)
	}
	if v, ok := snap.Value("spear_mcts_root_workers"); !ok || v != 4 {
		t.Errorf("root workers gauge %v (ok=%v), want 4", v, ok)
	}
	if v, ok := snap.Value("spear_mcts_merge_conflicts_total"); !ok || v != float64(stats.MergeConflicts) {
		t.Errorf("registry merge conflicts %v (ok=%v), stats %d", v, ok, stats.MergeConflicts)
	}
}

// TestNewExpanderFactoryPerWorker checks that every tree worker gets its own
// expander instance from the factory — shared stateful expanders across
// concurrent workers are exactly what NewExpander exists to prevent.
func TestNewExpanderFactoryPerWorker(t *testing.T) {
	built := 0
	s := New(Config{
		RootParallelism: 3,
		NewExpander: func() Expander {
			built++
			return RandomExpander{}
		},
	})
	for w := 0; w < 3; w++ {
		s.worker(w)
	}
	if built != 3 {
		t.Errorf("factory built %d expanders for 3 workers", built)
	}
	g, capacity := smallRandomDAG(31, 15)
	if _, err := s.Schedule(g, cluster.Single(capacity)); err != nil {
		t.Fatal(err)
	}
}
