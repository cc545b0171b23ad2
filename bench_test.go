// Benchmarks for the paper's two runtime results (§V): Fig. 6(b), each
// scheduler's wall-clock cost per job, and Table I, the cost of pure MCTS
// across graph sizes and budgets. The time per sub-benchmark is the
// result's quantity. Every other table and figure is reproduced by the
// experiment harness behind cmd/spear-experiments (DESIGN.md §5), and
// EXPERIMENTS.md records paper-vs-measured results.
package spear_test

import (
	"fmt"
	"testing"

	"spear"
)

// benchJob draws one random job of the given size and the capacity it was
// drawn for.
func benchJob(b *testing.B, tasks int, seed int64) (*spear.Job, spear.Vector) {
	b.Helper()
	cfg := spear.DefaultRandomJobConfig()
	cfg.NumTasks = tasks
	job, err := spear.RandomJob(seed, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return job, cfg.Capacity()
}

// benchSchedule schedules job b.N times.
func benchSchedule(b *testing.B, s spear.Scheduler, job *spear.Job, capacity spear.Vector) {
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(job, spear.SingleMachine(capacity)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6bRuntime reproduces Fig. 6(b): per-scheduler wall-clock cost
// on one 30-task job.
func BenchmarkFig6bRuntime(b *testing.B) {
	job, capacity := benchJob(b, 30, 601)
	sp, err := spear.NewSpear(trainTinyModel(b), tinyFeatures(), spear.SpearConfig{InitialBudget: 40, MinBudget: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []spear.Scheduler{sp, spear.NewGraphene(), spear.NewTetris()} {
		b.Run(s.Name(), func(b *testing.B) { benchSchedule(b, s, job, capacity) })
	}
}

// BenchmarkTable1MCTSRuntime reproduces Table I: MCTS runtime across graph
// sizes and budgets (each sub-benchmark is one table cell).
func BenchmarkTable1MCTSRuntime(b *testing.B) {
	for _, size := range []int{10, 25, 50} {
		job, capacity := benchJob(b, size, 800+int64(size))
		for _, budget := range []int{25, 100} {
			b.Run(fmt.Sprintf("tasks=%d/budget=%d", size, budget), func(b *testing.B) {
				s := spear.NewMCTS(spear.MCTSConfig{InitialBudget: budget, MinBudget: budget / 5, Seed: 1})
				benchSchedule(b, s, job, capacity)
			})
		}
	}
}
