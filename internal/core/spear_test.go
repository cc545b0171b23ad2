package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"spear/internal/cluster"
	"spear/internal/drl"
	"spear/internal/mcts"
	"spear/internal/nn"
	"spear/internal/sched"
	"spear/internal/workload"
)

// quickModel trains a tiny model once for the whole test file.
var (
	quickNet  *nn.Network
	quickFeat = drl.Features{Window: 5, Horizon: 10, Dims: 2}
)

func quickModel(t *testing.T) *nn.Network {
	t.Helper()
	if quickNet != nil {
		return quickNet
	}
	net, curve, _, err := BuildModel(ModelConfig{
		Feat:        quickFeat,
		TrainJobs:   4,
		TasksPerJob: 10,
		PretrainCfg: drl.PretrainConfig{Epochs: 10, Opt: nn.RMSProp{LR: 1e-3, Rho: 0.9, Eps: 1e-8}},
		ReinforceCfg: drl.TrainConfig{
			Epochs: 3, Rollouts: 4,
			Opt: nn.RMSProp{LR: 5e-4, Rho: 0.9, Eps: 1e-8},
		},
		Seed: 1,
	}, nil)
	if err != nil {
		t.Fatalf("BuildModel: %v", err)
	}
	if len(curve) != 3 {
		t.Fatalf("curve len = %d", len(curve))
	}
	quickNet = net
	return net
}

func TestSpearProducesValidSchedules(t *testing.T) {
	net := quickModel(t)
	s, err := New(net, quickFeat, Config{InitialBudget: 30, MinBudget: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "Spear" {
		t.Errorf("Name = %q", s.Name())
	}

	cfg := workload.DefaultRandomDAGConfig()
	cfg.NumTasks = 25
	for seed := int64(0); seed < 2; seed++ {
		g, err := workload.RandomDAG(rand.New(rand.NewSource(seed)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Schedule(g, cluster.Single(cfg.Capacity()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := sched.Validate(g, cluster.Single(cfg.Capacity()), out); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if s.LastStats().Decisions == 0 {
			t.Error("no decisions recorded")
		}
	}
}

func TestSpearSolvesMotivatingExample(t *testing.T) {
	net := quickModel(t)
	s, err := New(net, quickFeat, Config{InitialBudget: 2000, MinBudget: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.MotivatingExample(100)
	if err != nil {
		t.Fatal(err)
	}
	capacity := workload.MotivatingCapacity()
	out, err := s.Schedule(g, cluster.Single(capacity))
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, cluster.Single(capacity), out); err != nil {
		t.Fatal(err)
	}
	if out.Makespan >= 301 {
		t.Errorf("Spear makespan = %d, want < 301 (the heuristic trap)", out.Makespan)
	}
}

// TestSpearPolicyTallyCoversEveryRollout: with several rollouts per expansion
// the search still reports every policy evaluation — each rollout asks for at
// least one — and the rollout context's memo answers some of them. Config
// has no rollouts-per-expansion knob, so the search is built the way the
// ablation builds its Spear arms: DRL expander and rollouts on mcts.Config.
func TestSpearPolicyTallyCoversEveryRollout(t *testing.T) {
	net, err := drl.DefaultNetwork(quickFeat, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := drl.NewAgent(net, quickFeat, false)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := drl.NewAgent(net, quickFeat, true)
	if err != nil {
		t.Fatal(err)
	}
	s := mcts.NewNamed("Spear", mcts.Config{InitialBudget: 20, MinBudget: 5, Seed: 2, Window: quickFeat.Window,
		Rollout: sampler, Expand: drl.NewExpander(greedy), RolloutsPerExpansion: 3})
	cfg := workload.DefaultRandomDAGConfig()
	cfg.NumTasks = 15
	g, err := workload.RandomDAG(rand.New(rand.NewSource(9)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Schedule(g, cluster.Single(cfg.Capacity())); err != nil {
		t.Fatal(err)
	}
	st := s.LastStats()
	if st.Rollouts == 0 || st.PolicyCalls < st.Rollouts {
		t.Errorf("%d policy calls reported for %d rollouts", st.PolicyCalls, st.Rollouts)
	}
	if st.PolicyCacheHits == 0 {
		t.Errorf("no memo hit in %d policy calls", st.PolicyCalls)
	}

	// A cancelled search still plays the rest of its episode with the
	// policy; those calls are reported too.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ScheduleContext(ctx, g, cluster.Single(cfg.Capacity())); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled search: err = %v, want wrapping context.Canceled", err)
	}
	if st := s.LastStats(); st.Rollouts != 0 || st.PolicyCalls < int64(cfg.NumTasks) {
		t.Errorf("pre-cancelled search reported %d policy calls for its %d-task completion (%d rollouts)",
			st.PolicyCalls, cfg.NumTasks, st.Rollouts)
	}
}

func TestSpearSmallBudgetTracksMCTSBigBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("comparative test")
	}
	// The paper's §V-B2 claim at miniature scale: Spear with a small budget
	// should be within a few percent of pure MCTS with 4x the budget.
	net := quickModel(t)
	spear, err := New(net, quickFeat, Config{InitialBudget: 30, MinBudget: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pure := mcts.New(mcts.Config{InitialBudget: 120, MinBudget: 40, Seed: 5})

	cfg := workload.DefaultRandomDAGConfig()
	cfg.NumTasks = 25
	var spearTotal, mctsTotal int64
	for seed := int64(20); seed < 24; seed++ {
		g, err := workload.RandomDAG(rand.New(rand.NewSource(seed)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		so, err := spear.Schedule(g, cluster.Single(cfg.Capacity()))
		if err != nil {
			t.Fatal(err)
		}
		mo, err := pure.Schedule(g, cluster.Single(cfg.Capacity()))
		if err != nil {
			t.Fatal(err)
		}
		spearTotal += so.Makespan
		mctsTotal += mo.Makespan
	}
	// Spear(30) should be within 15% of MCTS(120).
	if float64(spearTotal) > 1.15*float64(mctsTotal) {
		t.Errorf("Spear total %d much worse than MCTS total %d", spearTotal, mctsTotal)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, quickFeat, Config{}); err == nil {
		t.Error("nil network accepted")
	}
	wrong, err := nn.New([]int{2, 2}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(wrong, quickFeat, Config{}); err == nil {
		t.Error("mismatched network accepted")
	}
}

func TestBuildModelDefaults(t *testing.T) {
	cfg := ModelConfig{}.Normalized()
	if cfg.TrainJobs != 16 || cfg.TasksPerJob != 25 {
		t.Errorf("defaults = %d jobs x %d tasks", cfg.TrainJobs, cfg.TasksPerJob)
	}
	if cfg.Feat != drl.DefaultFeatures() {
		t.Errorf("Feat default = %+v", cfg.Feat)
	}
}

// TestSpearRejectsMultiMachineSpec: the policy network has no machine choice,
// so a multi-machine spec must come back as the sentinel error from both entry
// points, not as an out-of-range index into the action distribution.
func TestSpearRejectsMultiMachineSpec(t *testing.T) {
	net := quickModel(t)
	s, err := New(net, quickFeat, Config{InitialBudget: 10, MinBudget: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultRandomDAGConfig()
	cfg.NumTasks = 10
	g, err := workload.RandomDAG(rand.New(rand.NewSource(3)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := cluster.Uniform(2, cfg.Capacity())
	if out, err := s.Schedule(g, spec); !errors.Is(err, errMultiMachine) || out != nil {
		t.Errorf("Schedule on 2 machines = %v, %v; want nil, errMultiMachine", out, err)
	}
	if out, err := s.ScheduleContext(context.Background(), g, spec); !errors.Is(err, errMultiMachine) || out != nil {
		t.Errorf("ScheduleContext on 2 machines = %v, %v; want nil, errMultiMachine", out, err)
	}
	if _, err := s.Schedule(g, cluster.Uniform(1, cfg.Capacity())); err != nil {
		t.Errorf("one-machine Uniform spec rejected: %v", err)
	}
}
