// Package core assembles Spear, the paper's primary contribution: Monte
// Carlo Tree Search whose expansion step is ordered by the trained policy
// network (most promising unexplored action first) and whose rollouts are
// played by the same network instead of a random policy (§III, Fig. 4).
// With the learned guidance, Spear reaches pure-MCTS quality with a ~10x
// smaller search budget (§V-B2).
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/drl"
	"spear/internal/mcts"
	"spear/internal/nn"
	"spear/internal/obs"
	"spear/internal/resource"
	"spear/internal/sched"
	"spear/internal/workload"
)

// Config parameterizes a Spear scheduler.
type Config struct {
	// InitialBudget is the MCTS iteration budget for the first decision.
	// The paper uses 1000 for simulations and 100 for the trace experiments
	// (guided search needs far less budget). Default 100.
	InitialBudget int
	// MinBudget floors the decayed per-decision budget. Default 50.
	MinBudget int
	// RootParallelism runs this many independent search trees per decision
	// (root parallelization), splitting each decision's budget across them
	// and merging their root statistics to pick the action. Default 1.
	RootParallelism int
	// TreeParallelism runs this many workers inside each search tree (tree
	// parallelization): they share one arena-allocated tree under one lock,
	// released for rollouts, with virtual losses. Composes with
	// RootParallelism (K trees × J workers). Default 1, the exact serial
	// search.
	TreeParallelism int
	// UseTranspositions pools search statistics across nodes that reach the
	// same episode state via different schedule orders (transposition
	// table keyed by the env's canonical state hash). Default off.
	UseTranspositions bool
	// Seed feeds the search's random source.
	Seed int64
	// Obs, when non-nil, is the metrics registry the underlying search
	// registers its counters in (shared registries aggregate across
	// schedulers). Nil means a private registry.
	Obs *obs.Registry
}

func (c Config) normalized() Config {
	if c.InitialBudget <= 0 {
		c.InitialBudget = 100
	}
	if c.MinBudget <= 0 {
		c.MinBudget = 50
	}
	return c
}

// Spear is the DRL-guided MCTS scheduler. It implements sched.Scheduler.
type Spear struct {
	search *mcts.Scheduler
}

var _ sched.ContextScheduler = (*Spear)(nil)

// errMultiMachine rejects cluster specs the policy network cannot act on: its
// output layer has one logit per ready-task slot, with no machine choice.
var errMultiMachine = errors.New("core: the Spear policy network schedules single-machine specs only")

// New builds Spear around a trained policy network. The same network guides
// both expansion ordering (argmax) and rollouts (sampled from the policy
// distribution, which keeps rollouts diverse across iterations, §III-D). The
// rollout agent implements simenv.ContextPolicy, so the search runs every
// rollout through the allocation-free, memoised inference fast path; each
// root-parallel tree worker gets a private expander from the factory.
func New(net *nn.Network, feat drl.Features, cfg Config) (*Spear, error) {
	cfg = cfg.normalized()
	rolloutAgent, err := drl.NewAgent(net, feat, false)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	expandAgent, err := drl.NewAgent(net, feat, true)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	search := mcts.NewNamed("Spear", mcts.Config{
		InitialBudget: cfg.InitialBudget,
		MinBudget:     cfg.MinBudget,
		Rollout:       rolloutAgent,
		Expand:        drl.NewExpander(expandAgent),
		// The DRL expander carries private inference buffers, so every
		// root-parallel tree worker builds its own from the factory.
		NewExpander:       func() mcts.Expander { return drl.NewExpander(expandAgent) },
		Window:            feat.Window,
		Seed:              cfg.Seed,
		RootParallelism:   cfg.RootParallelism,
		TreeParallelism:   cfg.TreeParallelism,
		UseTranspositions: cfg.UseTranspositions,
		Obs:               cfg.Obs,
	})
	return &Spear{search: search}, nil
}

// Name implements sched.Scheduler.
func (s *Spear) Name() string { return s.search.Name() }

// Schedule implements sched.Scheduler.
func (s *Spear) Schedule(g *dag.Graph, spec cluster.Spec) (*sched.Schedule, error) {
	return s.ScheduleContext(context.Background(), g, spec)
}

// ScheduleContext implements sched.ContextScheduler, delegating to the
// underlying search: on cancellation it returns the best incumbent schedule
// together with an error wrapping ctx.Err(). A spec of more than one machine
// is an error: drl.Features encodes no machine choice, so the expander and
// the rollout agent could only ever place on machine 0.
func (s *Spear) ScheduleContext(ctx context.Context, g *dag.Graph, spec cluster.Spec) (*sched.Schedule, error) {
	if len(spec) > 1 {
		return nil, fmt.Errorf("%w: got %d machines", errMultiMachine, len(spec))
	}
	return s.search.ScheduleContext(ctx, g, spec)
}

// LastStats exposes the underlying search counters.
func (s *Spear) LastStats() mcts.Stats { return s.search.LastStats() }

// Metrics renders the scheduler's cumulative metrics snapshot.
func (s *Spear) Metrics() obs.Snapshot { return s.search.Metrics() }

// ModelConfig controls BuildModel, the end-to-end training pipeline
// (supervised warm start, then REINFORCE) on randomly generated jobs — the
// paper trains on 144 random 25-task examples for 7000 epochs (§V-B3); the
// defaults here are scaled down and everything is overridable.
type ModelConfig struct {
	// Feat is the state featurization; zero value means drl.DefaultFeatures.
	Feat drl.Features
	// TrainJobs is the number of generated training examples. Default 16
	// (paper: 144).
	TrainJobs int
	// TasksPerJob is the size of each training DAG. Default 25 (paper: 25).
	TasksPerJob int
	// PretrainCfg and ReinforceCfg pass through to the drl trainers.
	PretrainCfg  drl.PretrainConfig
	ReinforceCfg drl.TrainConfig
	// Seed makes the whole pipeline reproducible.
	Seed int64
	// Metrics, when non-nil, instruments the pipeline: phase wall-clock
	// (pretrain, REINFORCE and the sample/backprop/apply split), trajectory
	// and gradient counters, and rollout-baseline spreads.
	Metrics *obs.TrainMetrics
}

// Normalized returns the config with defaults filled in.
func (c ModelConfig) Normalized() ModelConfig {
	if c.Feat == (drl.Features{}) {
		c.Feat = drl.DefaultFeatures()
	}
	if c.TrainJobs <= 0 {
		c.TrainJobs = 16
	}
	if c.TasksPerJob <= 0 {
		c.TasksPerJob = 25
	}
	return c
}

// BuildModel generates training jobs, warm-starts the policy by imitating
// the CP heuristic and then improves it with REINFORCE. It returns the
// trained network, the RL learning curve, and the cluster capacity the
// model was trained against.
func BuildModel(cfg ModelConfig, progress func(drl.EpochStats)) (*nn.Network, []drl.EpochStats, resource.Vector, error) {
	cfg = cfg.Normalized()
	rng := rand.New(rand.NewSource(cfg.Seed))

	wcfg := workload.DefaultRandomDAGConfig()
	wcfg.NumTasks = cfg.TasksPerJob
	wcfg.Dims = cfg.Feat.Dims
	jobs, err := workload.RandomBatch(rng, wcfg, cfg.TrainJobs)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: training jobs: %w", err)
	}
	capacity := wcfg.Capacity()

	net, err := drl.DefaultNetwork(cfg.Feat, rng)
	if err != nil {
		return nil, nil, nil, err
	}
	pretrainStart := time.Now()
	if _, err := drl.Pretrain(net, cfg.Feat, jobs, capacity, cfg.PretrainCfg, rng); err != nil {
		return nil, nil, nil, fmt.Errorf("core: pretrain: %w", err)
	}
	if cfg.Metrics != nil {
		cfg.Metrics.PretrainTime.ObserveSince(pretrainStart)
	}
	rcfg := cfg.ReinforceCfg
	if rcfg.Metrics == nil {
		rcfg.Metrics = cfg.Metrics
	}
	reinforceStart := time.Now()
	curve, err := drl.Train(net, cfg.Feat, jobs, capacity, rcfg, rng, progress)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: reinforce: %w", err)
	}
	if cfg.Metrics != nil {
		cfg.Metrics.ReinforceTime.ObserveSince(reinforceStart)
	}
	return net, curve, capacity, nil
}
