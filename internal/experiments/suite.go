// Package experiments regenerates every table and figure of the paper's
// evaluation section (§V). Each experiment is a named runner with explicit,
// seeded parameters that prints the same rows/series the paper reports.
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
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"spear/internal/baselines"
	"spear/internal/cluster"
	"spear/internal/core"
	"spear/internal/dag"
	"spear/internal/drl"
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
	// RootParallelism is threaded into every MCTS-backed scheduler the suite
	// builds (Spear and pure MCTS alike): each decision runs this many
	// independent root-parallel trees, splitting the budget across them.
	// Zero or one keeps the classic single tree.
	RootParallelism int
	// TreeParallelism is likewise threaded into every MCTS-backed scheduler:
	// each tree is searched by this many shared-tree workers (virtual loss,
	// atomic statistics). Zero or one keeps the serial per-tree search.
	TreeParallelism int

	curve []drl.EpochStats

	// Cached results shared between experiment pairs (fig6a/fig6b share
	// runs, fig7a/fig7b share the budget sweep, fig9a/fig9b the trace).
	fig6  *Fig6Result
	fig7  *Fig7Result
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
		cfg.TasksPerJob = 25
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
		InitialBudget:   initialBudget,
		MinBudget:       minBudget,
		Seed:            s.Seed,
		RootParallelism: s.RootParallelism,
		TreeParallelism: s.TreeParallelism,
		Obs:             s.Obs,
	})
}

// AlgorithmResult aggregates one scheduler's makespans and wall-clock times
// across a set of jobs.
type AlgorithmResult struct {
	Name      string
	Makespans []int64
	Elapsed   []time.Duration
}

// runAll schedules every graph with every scheduler, validating each result.
func runAll(graphs []*dag.Graph, capacity resource.Vector, schedulers []sched.Scheduler, logf func(string, ...any)) ([]AlgorithmResult, error) {
	out := make([]AlgorithmResult, len(schedulers))
	for i, sc := range schedulers {
		out[i].Name = sc.Name()
		for gi, g := range graphs {
			res, err := sc.Schedule(g, cluster.Single(capacity))
			if err != nil {
				return nil, fmt.Errorf("%s on graph %d: %w", sc.Name(), gi, err)
			}
			if err := sched.Validate(g, cluster.Single(capacity), res); err != nil {
				return nil, fmt.Errorf("%s on graph %d: %w", sc.Name(), gi, err)
			}
			out[i].Makespans = append(out[i].Makespans, res.Makespan)
			out[i].Elapsed = append(out[i].Elapsed, res.Elapsed)
			logf("  %s graph %d/%d: makespan %d (%v)\n", sc.Name(), gi+1, len(graphs), res.Makespan, res.Elapsed.Round(time.Millisecond))
		}
	}
	return out, nil
}

// Runner executes one named experiment and writes its report.
type Runner struct {
	Name        string
	Description string
	Run         func(s *Suite, w io.Writer) error
	// CSV writes the experiment's machine-readable data, for re-plotting.
	CSV func(s *Suite, w io.Writer) error
}

// Registry lists every experiment in paper order.
func Registry() []Runner {
	return []Runner{
		{"fig3", "motivating example: all schedulers on the 8-task DAG", func(s *Suite, w io.Writer) error {
			r, err := s.Fig3()
			if err != nil {
				return err
			}
			_, err = io.WriteString(w, r.String())
			return err
		}, func(s *Suite, w io.Writer) error {
			r, err := s.Fig3()
			if err != nil {
				return err
			}
			return r.WriteCSV(w)
		}},
		{"fig6a", "makespans of Spear vs baselines on random 100-task DAGs", func(s *Suite, w io.Writer) error {
			r, err := s.Fig6()
			if err != nil {
				return err
			}
			_, err = io.WriteString(w, r.MakespanTable())
			return err
		}, func(s *Suite, w io.Writer) error {
			r, err := s.Fig6()
			if err != nil {
				return err
			}
			return r.WriteCSV(w)
		}},
		{"fig6b", "scheduler runtime distribution (same runs as fig6a)", func(s *Suite, w io.Writer) error {
			r, err := s.Fig6()
			if err != nil {
				return err
			}
			_, err = io.WriteString(w, r.RuntimeTable())
			return err
		}, func(s *Suite, w io.Writer) error {
			r, err := s.Fig6()
			if err != nil {
				return err
			}
			return r.WriteCSV(w)
		}},
		{"fig7a", "pure-MCTS makespan vs search budget", func(s *Suite, w io.Writer) error {
			r, err := s.Fig7()
			if err != nil {
				return err
			}
			_, err = io.WriteString(w, r.MakespanTable())
			return err
		}, func(s *Suite, w io.Writer) error {
			r, err := s.Fig7()
			if err != nil {
				return err
			}
			return r.WriteCSV(w)
		}},
		{"fig7b", "fraction of jobs where MCTS beats Tetris vs budget", func(s *Suite, w io.Writer) error {
			r, err := s.Fig7()
			if err != nil {
				return err
			}
			_, err = io.WriteString(w, r.WinRateTable())
			return err
		}, func(s *Suite, w io.Writer) error {
			r, err := s.Fig7()
			if err != nil {
				return err
			}
			return r.WriteCSV(w)
		}},
		{"table1", "MCTS runtime vs graph size and budget", func(s *Suite, w io.Writer) error {
			r, err := s.Table1()
			if err != nil {
				return err
			}
			_, err = io.WriteString(w, r.String())
			return err
		}, func(s *Suite, w io.Writer) error {
			r, err := s.Table1()
			if err != nil {
				return err
			}
			return r.WriteCSV(w)
		}},
		{"fig8a", "Spear with 10% budget vs pure MCTS and baselines", func(s *Suite, w io.Writer) error {
			r, err := s.Fig8a()
			if err != nil {
				return err
			}
			_, err = io.WriteString(w, r.String())
			return err
		}, func(s *Suite, w io.Writer) error {
			r, err := s.Fig8a()
			if err != nil {
				return err
			}
			return r.WriteCSV(w)
		}},
		{"fig8b", "DRL learning curve vs Tetris/SJF reference", func(s *Suite, w io.Writer) error {
			r, err := s.Fig8b()
			if err != nil {
				return err
			}
			_, err = io.WriteString(w, r.String())
			return err
		}, func(s *Suite, w io.Writer) error {
			r, err := s.Fig8b()
			if err != nil {
				return err
			}
			return r.WriteCSV(w)
		}},
		{"fig9a", "trace task-count distributions", func(s *Suite, w io.Writer) error {
			r, err := s.Fig9Trace()
			if err != nil {
				return err
			}
			_, err = io.WriteString(w, r.CountTable())
			return err
		}, func(s *Suite, w io.Writer) error {
			r, err := s.Fig9Trace()
			if err != nil {
				return err
			}
			return r.WriteCSV(w)
		}},
		{"fig9b", "trace runtime distributions", func(s *Suite, w io.Writer) error {
			r, err := s.Fig9Trace()
			if err != nil {
				return err
			}
			_, err = io.WriteString(w, r.RuntimeTable())
			return err
		}, func(s *Suite, w io.Writer) error {
			r, err := s.Fig9Trace()
			if err != nil {
				return err
			}
			return r.WriteCSV(w)
		}},
		{"fig9c", "trace-driven makespan reduction of Spear over Graphene", func(s *Suite, w io.Writer) error {
			r, err := s.Fig9c()
			if err != nil {
				return err
			}
			_, err = io.WriteString(w, r.String())
			return err
		}, func(s *Suite, w io.Writer) error {
			r, err := s.Fig9c()
			if err != nil {
				return err
			}
			return r.WriteCSV(w)
		}},
		{"ablation", "design-choice isolation: DRL expand/rollout, budget decay, parallel rollouts", func(s *Suite, w io.Writer) error {
			r, err := s.Ablation()
			if err != nil {
				return err
			}
			_, err = io.WriteString(w, r.String())
			return err
		}, func(s *Suite, w io.Writer) error {
			r, err := s.Ablation()
			if err != nil {
				return err
			}
			return r.WriteCSV(w)
		}},
		{"gap", "optimality gap vs exact branch-and-bound on small jobs", func(s *Suite, w io.Writer) error {
			r, err := s.Gap()
			if err != nil {
				return err
			}
			_, err = io.WriteString(w, r.String())
			return err
		}, func(s *Suite, w io.Writer) error {
			r, err := s.Gap()
			if err != nil {
				return err
			}
			return r.WriteCSV(w)
		}},
	}
}

// Names returns the registered experiment names in paper order.
func Names() []string {
	rs := Registry()
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Name
	}
	return out
}

// Run executes one experiment by name.
func (s *Suite) Run(name string, w io.Writer) error {
	for _, r := range Registry() {
		if r.Name == name {
			return r.Run(s, w)
		}
	}
	known := Names()
	sort.Strings(known)
	return fmt.Errorf("experiments: unknown experiment %q (known: %v)", name, known)
}

// tabulate renders the rows a result writes to w as one aligned table at the
// end of b. It owns the column format every String/…Table method shares, and
// the writer's flush.
func tabulate(b *strings.Builder, rows func(w io.Writer)) {
	w := tabwriter.NewWriter(b, 2, 4, 2, ' ', 0)
	rows(w)
	w.Flush() //spear:ignoreerr(flush lands in a strings.Builder, which cannot fail)
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

// baselineSetByName returns a fresh baseline scheduler by display name.
func baselineSetByName(name string) sched.Scheduler {
	for _, s := range baselineSet() {
		if s.Name() == name {
			return s
		}
	}
	return nil
}
