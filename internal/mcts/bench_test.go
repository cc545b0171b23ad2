package mcts

import (
	"strconv"
	"testing"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/drl"
	"spear/internal/resource"
)

func BenchmarkSchedule30Tasks(b *testing.B) {
	g, capacity := smallRandomDAG(1, 30)
	s := New(Config{InitialBudget: 50, MinBudget: 10, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(g, cluster.Single(capacity)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRootParallel compares root-parallelism degrees on the
// Spear-shaped hot path (policy-network rollouts). The acceptance target is
// sims/sec scaling on multi-core runners: K=4 should reach >= 1.8x the K=1
// rate on >= 4 cores. Each sub-benchmark reports its own sims/s.
func BenchmarkRootParallel(b *testing.B) {
	g, capacity := smallRandomDAG(1, 30)
	agent := untrainedAgent(b, smallFeat, false)
	for _, k := range []int{1, 2, 4} {
		b.Run("K="+strconv.Itoa(k), func(b *testing.B) {
			benchSimsPerSec(b, g, capacity, Config{
				InitialBudget: 40, MinBudget: 10, Seed: 1,
				Rollout: agent, Window: smallFeat.Window,
				RootParallelism: k,
			})
		})
	}
}

// benchSimsPerSec schedules g b.N times on one scheduler and reports the
// rollouts played per second of search, beside allocations per job.
func benchSimsPerSec(b *testing.B, g *dag.Graph, capacity resource.Vector, cfg Config) {
	s := New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	var rollouts int64
	var elapsed float64
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(g, cluster.Single(capacity)); err != nil {
			b.Fatal(err)
		}
		st := s.LastStats()
		rollouts += st.Rollouts
		elapsed += st.Elapsed.Seconds()
	}
	if elapsed > 0 {
		b.ReportMetric(float64(rollouts)/elapsed, "sims/s")
	}
}

// BenchmarkLeafRollouts is a search that plays four rollouts per expansion on
// a 100-task DAG, with the classic random rollout policy and with the DRL
// agent (whose context memoises the states it has answered). Each reports
// its own sims/s; allocations are per job.
func BenchmarkLeafRollouts(b *testing.B) {
	g, capacity := smallRandomDAG(1, 100)
	feat := drl.DefaultFeatures()
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"random_k4", Config{InitialBudget: 100, MinBudget: 25}},
		{"drl_k4", Config{InitialBudget: 50, MinBudget: 25, Rollout: untrainedAgent(b, feat, false), Window: feat.Window}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bc.cfg.Seed = 1
			bc.cfg.RolloutsPerExpansion = 4
			benchSimsPerSec(b, g, capacity, bc.cfg)
		})
	}
}

// BenchmarkScheduleDRLRollout measures the full Spear-shaped hot path: MCTS
// whose rollouts run the policy network through the rollout-context fast
// path (simenv.ContextPolicy), dominated by per-step inference.
func BenchmarkScheduleDRLRollout(b *testing.B) {
	g, capacity := smallRandomDAG(1, 30)
	s := New(Config{InitialBudget: 20, MinBudget: 5, Seed: 1, Rollout: untrainedAgent(b, smallFeat, false), Window: smallFeat.Window})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(g, cluster.Single(capacity)); err != nil {
			b.Fatal(err)
		}
	}
}
