// Package experiments regenerates every table and figure of the paper's
// evaluation section (§V). Each experiment has explicit, seeded parameters
// and prints the same rows/series the paper reports; table.go declares them
// all and Suite.Run executes them.
//
// Two parameter sets exist: Quick (the default; minutes on a laptop) and
// full (closer to the paper's scale; see DESIGN.md for the mapping). The
// shapes of the results — who wins, by roughly what factor, where the
// crossovers fall — are expected to match the paper at either scale.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"text/tabwriter"
	"time"

	"spear/internal/baselines"
	"spear/internal/cluster"
	"spear/internal/core"
	"spear/internal/dag"
	"spear/internal/drl"
	"spear/internal/mcts"
	"spear/internal/nn"
	"spear/internal/obs"
	"spear/internal/resource"
	"spear/internal/sched"
	"spear/internal/workload"
)

// Suite holds shared state (the trained policy model, the random seed and
// the scale) across experiments.
type Suite struct {
	// Seed drives every generator and scheduler in the suite.
	Seed int64
	// Full switches from the quick parameter set to the paper-scale one.
	Full bool
	// Feat is the featurization of the policy model. Zero value means
	// drl.DefaultFeatures().
	Feat drl.Features
	// Net is the trained policy network. When nil, the suite trains one on
	// demand (TrainModel) with scale-appropriate settings.
	Net *nn.Network
	// ModelCfg overrides the training pipeline settings (model shape,
	// epochs, rollouts). Nil means scale-appropriate defaults.
	ModelCfg *core.ModelConfig
	// Log, when non-nil, receives progress lines during long experiments.
	Log io.Writer
	// Obs, when non-nil, is the shared metrics registry every scheduler the
	// suite constructs registers into, so one snapshot aggregates the whole
	// run (the -metrics flag of cmd/spear-experiments).
	Obs *obs.Registry

	curve []drl.EpochStats

	// trace caches the synthetic trace: fig9a/fig9b report it and Fig9c
	// schedules it, a different computation.
	trace *TraceResult
}

// NewSuite returns a Suite with the given seed in quick mode.
func NewSuite(seed int64) *Suite { return &Suite{Seed: seed} }

func (s *Suite) features() drl.Features {
	if s.Feat == (drl.Features{}) {
		return drl.DefaultFeatures()
	}
	return s.Feat
}

func (s *Suite) logf(format string, args ...any) {
	if s.Log != nil {
		fmt.Fprintf(s.Log, format, args...)
	}
}

// modelConfig returns the training pipeline settings for the current scale.
func (s *Suite) modelConfig() core.ModelConfig {
	if s.ModelCfg != nil {
		cfg := *s.ModelCfg
		if cfg.Feat == (drl.Features{}) {
			cfg.Feat = s.features()
		}
		return cfg
	}
	cfg := core.ModelConfig{
		Feat:        s.features(),
		Seed:        s.Seed,
		TrainJobs:   12,
		TasksPerJob: 25,
		PretrainCfg: drl.PretrainConfig{Epochs: 12, Opt: nn.RMSProp{LR: 1e-3, Rho: 0.9, Eps: 1e-8}},
		ReinforceCfg: drl.TrainConfig{
			Epochs: 30, Rollouts: 10,
			Opt: nn.RMSProp{LR: 5e-4, Rho: 0.9, Eps: 1e-8},
		},
	}
	if s.Full {
		// The paper's §V-B3 settings (144 examples, 20 rollouts, 7000
		// epochs); epochs remain far below 7000 to stay tractable but the
		// curve shape is established well before that.
		cfg.TrainJobs = 144
		cfg.PretrainCfg = drl.PretrainConfig{Epochs: 20, Opt: nn.RMSProp{LR: 1e-3, Rho: 0.9, Eps: 1e-8}}
		cfg.ReinforceCfg = drl.TrainConfig{Epochs: 300, Rollouts: 20}
	}
	return cfg
}

// TrainModel ensures the suite has a trained policy network, returning the
// RL learning curve recorded during training.
func (s *Suite) TrainModel() ([]drl.EpochStats, error) {
	if s.Net != nil {
		return s.curve, nil
	}
	s.logf("training policy model (full=%v)...\n", s.Full)
	began := time.Now()
	cfg := s.modelConfig()
	if cfg.Metrics == nil && s.Obs != nil {
		cfg.Metrics = obs.NewTrainMetrics(s.Obs)
	}
	net, curve, _, err := core.BuildModel(cfg, func(st drl.EpochStats) {
		if st.Epoch%10 == 0 {
			s.logf("  epoch %d: mean makespan %.1f\n", st.Epoch, st.MeanMakespan)
		}
	})
	if err != nil {
		return nil, err
	}
	s.logf("model trained in %v\n", time.Since(began).Round(time.Millisecond))
	s.Net = net
	s.curve = curve
	return curve, nil
}

// spear builds a Spear scheduler with the suite's model.
func (s *Suite) spear(initialBudget, minBudget int) (*core.Spear, error) {
	if _, err := s.TrainModel(); err != nil {
		return nil, err
	}
	return core.New(s.Net, s.features(), core.Config{
		InitialBudget: initialBudget,
		MinBudget:     minBudget,
		Seed:          s.Seed,
		Obs:           s.Obs,
	})
}

// searchConfig is the pure-MCTS configuration every experiment starts from:
// random expansion and rollouts, the suite's seed and metrics registry.
func (s *Suite) searchConfig(initialBudget, minBudget int) mcts.Config {
	return mcts.Config{InitialBudget: initialBudget, MinBudget: minBudget, Seed: s.Seed, Obs: s.Obs}
}

// AlgorithmResult aggregates one scheduler's makespans and wall-clock times
// across a set of jobs.
type AlgorithmResult struct {
	Name      string
	Makespans []int64
	Elapsed   []time.Duration
}

// millis returns the per-job scheduling times in milliseconds, the unit every
// report and CSV export uses.
func (ar *AlgorithmResult) millis() []float64 {
	ms := make([]float64, len(ar.Elapsed))
	for i, d := range ar.Elapsed {
		ms[i] = float64(d.Microseconds()) / 1000
	}
	return ms
}

// runAll schedules every graph with every scheduler, validating each result
// and timing each whole Schedule call.
func runAll(graphs []*dag.Graph, capacity resource.Vector, schedulers []sched.Scheduler, logf func(string, ...any)) ([]AlgorithmResult, error) {
	out := make([]AlgorithmResult, len(schedulers))
	for i, sc := range schedulers {
		out[i].Name = sc.Name()
		for gi, g := range graphs {
			began := time.Now()
			res, err := sc.Schedule(g, cluster.Single(capacity))
			elapsed := time.Since(began)
			if err != nil {
				return nil, fmt.Errorf("%s on graph %d: %w", sc.Name(), gi, err)
			}
			if err := sched.Validate(g, cluster.Single(capacity), res); err != nil {
				return nil, fmt.Errorf("%s on graph %d: %w", sc.Name(), gi, err)
			}
			out[i].Makespans = append(out[i].Makespans, res.Makespan)
			out[i].Elapsed = append(out[i].Elapsed, elapsed)
			logf("  %s graph %d/%d: makespan %d (%v)\n", sc.Name(), gi+1, len(graphs), res.Makespan, elapsed.Round(time.Millisecond))
		}
	}
	return out, nil
}

// tabulate renders a report: the title line(s), then the rows a result writes
// to w as one aligned table. It owns the column format every report shares,
// and the writer's flush.
func tabulate(title string, rows func(w io.Writer)) string {
	var b strings.Builder
	b.WriteString(title)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	rows(w)
	w.Flush() //spear:ignoreerr(flush lands in a strings.Builder, which cannot fail)
	return b.String()
}

// randomJobs generates n random DAGs with the paper's workload settings,
// scaled for quick mode.
func (s *Suite) randomJobs(n, tasks int, seedOffset int64) ([]*dag.Graph, resource.Vector, error) {
	cfg := workload.DefaultRandomDAGConfig()
	cfg.NumTasks = tasks
	r := rand.New(rand.NewSource(s.Seed + seedOffset))
	graphs, err := workload.RandomBatch(r, cfg, n)
	if err != nil {
		return nil, nil, err
	}
	return graphs, cfg.Capacity(), nil
}

// baselineSet returns fresh instances of the four paper baselines.
func baselineSet() []sched.Scheduler {
	return []sched.Scheduler{
		baselines.NewGrapheneScheduler(),
		baselines.NewTetrisScheduler(),
		baselines.NewCPScheduler(),
		baselines.NewSJFScheduler(),
	}
}
