package experiments

import (
	"fmt"
	"io"

	"spear/internal/baselines"
	"spear/internal/core"
	"spear/internal/drl"
	"spear/internal/mcts"
	"spear/internal/obs"
	"spear/internal/sched"
	"spear/internal/stats"
)

// Fig8a compares full-budget pure MCTS with small-budget Spear and the
// non-search baselines (§V-B2): Spear should track MCTS with ~10% of the
// budget and a fraction of the runtime.
func (s *Suite) Fig8a() (*comparison, error) {
	p := s.params.fig8a
	graphs, capacity, err := s.randomJobs(p.graphs, p.tasks, 900)
	if err != nil {
		return nil, err
	}
	spear, err := s.spear(p.minBudget, p.minBudget/2)
	if err != nil {
		return nil, err
	}
	pure := mcts.New(s.searchConfig(p.budget, p.minBudget))
	schedulers := append([]sched.Scheduler{pure, spear}, baselineSet()...)
	results, err := runAll(graphs, capacity, schedulers, s.logf)
	if err != nil {
		return nil, err
	}
	return &comparison{
		Label: "algorithm", Graphs: p.graphs, Tasks: p.tasks,
		Budget: p.budget, SpearBudget: p.minBudget,
		Results: results,
	}, nil
}

// fig8aTable renders the Fig. 8(a) comparison.
func fig8aTable(r *comparison) string {
	return r.meanTable(fmt.Sprintf("Fig. 8(a) — MCTS (budget %d) vs Spear (budget %d) vs baselines, %d x %d-task DAGs\n",
		r.Budget, r.SpearBudget, r.Graphs, r.Tasks))
}

// Fig8bResult is the DRL learning curve with the heuristic reference lines
// the paper plots alongside it.
type Fig8bResult struct {
	Curve      []drl.EpochStats
	TetrisMean float64
	SJFMean    float64
	CrossEpoch int // first epoch whose mean beats both references; -1 if never
}

// Fig8b trains the policy with the suite's recipe at the suite's Seed — the
// one experiment that trains — and reports the learning curve against the
// Tetris and SJF references on the same training distribution. The network
// itself is discarded: the other cells schedule with s.Net.
func (s *Suite) Fig8b() (*Fig8bResult, error) {
	cfg := s.params.model
	cfg.Seed = s.Seed
	if s.Obs != nil {
		cfg.Metrics = obs.NewTrainMetrics(s.Obs)
	}
	s.logf("fig8b: training the policy at seed %d...\n", s.Seed)
	_, curve, _, err := core.BuildModel(cfg, func(st drl.EpochStats) {
		if st.Epoch%10 == 0 {
			s.logf("  epoch %d: mean makespan %.1f\n", st.Epoch, st.MeanMakespan)
		}
	})
	if err != nil {
		return nil, err
	}
	// Reference heuristics on the jobs the model trained on.
	jobs, capacity, err := s.randomJobs(cfg.TrainJobs, cfg.TasksPerJob, 0)
	if err != nil {
		return nil, err
	}
	refs, err := runAll(jobs, capacity, []sched.Scheduler{baselines.NewTetrisScheduler(), baselines.NewSJFScheduler()}, s.logf)
	if err != nil {
		return nil, err
	}
	tetrisMean, _ := stats.Mean(refs[0].Makespans) //spear:ignoreerr(samples are non-empty by construction)
	sjfMean, _ := stats.Mean(refs[1].Makespans)    //spear:ignoreerr(samples are non-empty by construction)

	cross := -1
	for _, pt := range curve {
		if pt.MeanMakespan <= tetrisMean && pt.MeanMakespan <= sjfMean {
			cross = pt.Epoch
			break
		}
	}
	return &Fig8bResult{Curve: curve, TetrisMean: tetrisMean, SJFMean: sjfMean, CrossEpoch: cross}, nil
}

// String renders the learning curve as a sparse table.
func (r *Fig8bResult) String() string {
	out := tabulate("Fig. 8(b) — DRL learning curve (mean makespan per epoch)\n", func(w io.Writer) {
		fmt.Fprintln(w, "epoch\tmean makespan\tmin\tmax")
		step := len(r.Curve) / 12
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(r.Curve); i += step {
			pt := r.Curve[i]
			fmt.Fprintf(w, "%d\t%.1f\t%d\t%d\n", pt.Epoch, pt.MeanMakespan, pt.MinMakespan, pt.MaxMakespan)
		}
		last := r.Curve[len(r.Curve)-1]
		fmt.Fprintf(w, "%d\t%.1f\t%d\t%d\n", last.Epoch, last.MeanMakespan, last.MinMakespan, last.MaxMakespan)
	})
	out += fmt.Sprintf("references: Tetris %.1f, SJF %.1f\n", r.TetrisMean, r.SJFMean)
	if r.CrossEpoch >= 0 {
		return out + fmt.Sprintf("curve crosses both references at epoch %d\n", r.CrossEpoch)
	}
	return out + "curve has not crossed the references yet\n"
}
