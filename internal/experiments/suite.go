// Package experiments regenerates every table and figure of the paper's
// evaluation section (§V). Each experiment runs at the paper's parameters
// (the paper value below), seeded, and prints the same rows/series the paper
// reports; table.go declares them all and Suite.Run executes them.
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

// Suite holds shared state (the trained policy model and the random seed)
// across experiments. Build it with NewSuite.
type Suite struct {
	// Seed drives every generator and scheduler in the suite.
	Seed int64
	// Net is the trained policy network. When nil, the suite trains one on
	// demand (TrainModel).
	Net *nn.Network
	// Log, when non-nil, receives progress lines during long experiments.
	Log io.Writer
	// Obs, when non-nil, is the shared metrics registry every scheduler the
	// suite constructs registers into, so one snapshot aggregates the whole
	// run (the -metrics flag of cmd/spear-experiments).
	Obs *obs.Registry

	// params is the scale every experiment runs at: paper, unless a test
	// installs a smaller one.
	params params
	curve  []drl.EpochStats

	// trace caches the synthetic trace: fig9a/fig9b report it and Fig9c
	// schedules it, a different computation.
	trace *TraceResult
}

// batch is a batch of random DAGs and the search budget they are scheduled
// at: budget decays to minBudget (Eq. 4).
type batch struct{ graphs, tasks, budget, minBudget int }

// params holds every setting an experiment's scale depends on.
type params struct {
	// model is the policy's training pipeline, featurization included;
	// TrainModel seeds it with the suite's Seed.
	model core.ModelConfig
	// fig6's Spear and every ablation variant search budget→minBudget.
	// fig8a's pure MCTS does too, and its Spear gets minBudget→minBudget/2.
	fig6, fig8a, ablation batch
	// fig7 sweeps fig7Budgets, each decaying to minBudget.
	fig7        batch
	fig7Budgets []int
	// fig9c schedules the trace's first graphs jobs; tasks is unused.
	fig9c batch
	// gap's budgets are fixed; only graphs and tasks are read.
	gap                        batch
	table1Sizes, table1Budgets []int
}

// paper is §V's scale. Training stops at 300 of the paper's 7000 REINFORCE
// epochs (§V-B3): from the CP warm start the curve falls under 3 % in 300
// epochs, most of it in the first 25 (EXPERIMENTS.md, Fig. 8(b)).
var paper = params{
	model: core.ModelConfig{
		Feat:         drl.DefaultFeatures(),
		TrainJobs:    144,
		TasksPerJob:  25,
		PretrainCfg:  drl.PretrainConfig{Epochs: 20, Opt: nn.RMSProp{LR: 1e-3, Rho: 0.9, Eps: 1e-8}},
		ReinforceCfg: drl.TrainConfig{Epochs: 300, Rollouts: 20},
	},
	fig6:          batch{10, 100, 1000, 100},
	fig8a:         batch{10, 100, 1000, 100},
	ablation:      batch{10, 100, 400, 80},
	fig7:          batch{20, 100, 0, 5}, // the paper sweeps 100 DAGs
	fig7Budgets:   []int{500, 600, 1000, 1400, 1800, 2200},
	fig9c:         batch{graphs: 99, budget: 100, minBudget: 50}, // every trace job
	gap:           batch{graphs: 10, tasks: 10},
	table1Sizes:   []int{25, 50, 100},
	table1Budgets: []int{50, 100, 500, 1000},
}

// NewSuite returns a Suite with the given seed at the paper's scale.
func NewSuite(seed int64) *Suite { return &Suite{Seed: seed, params: paper} }

func (s *Suite) logf(format string, args ...any) {
	if s.Log != nil {
		fmt.Fprintf(s.Log, format, args...)
	}
}

// TrainModel ensures the suite has a trained policy network, returning the
// RL learning curve recorded during training.
func (s *Suite) TrainModel() ([]drl.EpochStats, error) {
	if s.Net != nil {
		return s.curve, nil
	}
	s.logf("training policy model...\n")
	began := time.Now()
	cfg := s.params.model
	cfg.Seed = s.Seed
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
	return core.New(s.Net, s.params.model.Feat, core.Config{
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

// randomJobs generates n random DAGs of the given size with the paper's
// workload settings.
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
