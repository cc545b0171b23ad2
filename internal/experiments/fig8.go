package experiments

import (
	"fmt"
	"io"
	"strings"

	"spear/internal/cluster"
	"spear/internal/drl"
	"spear/internal/mcts"
	"spear/internal/sched"
	"spear/internal/stats"
)

// Fig8aResult compares full-budget pure MCTS with small-budget Spear and
// the non-search baselines (§V-B2): Spear should track MCTS with ~10% of
// the budget and a fraction of the runtime.
type Fig8aResult struct {
	Graphs      int
	Tasks       int
	MCTSBudget  int
	SpearBudget int
	Results     []AlgorithmResult
}

// Fig8a runs the budget-efficiency comparison.
func (s *Suite) Fig8a() (*Fig8aResult, error) {
	nGraphs, tasks, mctsBudget, spearBudget := 4, 40, 300, 30
	if s.Full {
		nGraphs, tasks, mctsBudget, spearBudget = 10, 100, 1000, 100
	}
	graphs, capacity, err := s.randomJobs(nGraphs, tasks, 900)
	if err != nil {
		return nil, err
	}
	spear, err := s.spear(spearBudget, spearBudget/2)
	if err != nil {
		return nil, err
	}
	pure := mcts.New(mcts.Config{InitialBudget: mctsBudget, MinBudget: mctsBudget / 10, Seed: s.Seed, RootParallelism: s.RootParallelism, TreeParallelism: s.TreeParallelism, Obs: s.Obs})
	schedulers := append([]sched.Scheduler{pure, spear}, baselineSet()...)
	results, err := runAll(graphs, capacity, schedulers, s.logf)
	if err != nil {
		return nil, err
	}
	return &Fig8aResult{
		Graphs: nGraphs, Tasks: tasks,
		MCTSBudget: mctsBudget, SpearBudget: spearBudget,
		Results: results,
	}, nil
}

// String renders the Fig. 8(a) comparison.
func (r *Fig8aResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 8(a) — MCTS (budget %d) vs Spear (budget %d) vs baselines, %d x %d-task DAGs\n",
		r.MCTSBudget, r.SpearBudget, r.Graphs, r.Tasks)
	tabulate(&b, func(w io.Writer) {
		fmt.Fprintln(w, "algorithm\tavg makespan\tavg time")
		for _, ar := range r.Results {
			mean, _ := stats.Mean(ar.Makespans) //spear:ignoreerr(samples are non-empty by construction)
			var sumMS float64
			for _, d := range ar.Elapsed {
				sumMS += float64(d.Microseconds()) / 1000
			}
			fmt.Fprintf(w, "%s\t%.1f\t%.0fms\n", ar.Name, mean, sumMS/float64(len(ar.Elapsed)))
		}
	})
	return b.String()
}

// Fig8bResult is the DRL learning curve with the heuristic reference lines
// the paper plots alongside it.
type Fig8bResult struct {
	Curve      []drl.EpochStats
	TetrisMean float64
	SJFMean    float64
	CrossEpoch int // first epoch whose mean beats both references; -1 if never
}

// Fig8b trains (or reuses) the policy model and reports the learning curve
// against the Tetris and SJF references on the same training distribution.
func (s *Suite) Fig8b() (*Fig8bResult, error) {
	curve, err := s.TrainModel()
	if err != nil {
		return nil, err
	}
	if len(curve) == 0 {
		return nil, fmt.Errorf("experiments: model was provided pre-trained; no learning curve recorded")
	}
	// Reference heuristics on the same job distribution the model trained
	// on (regenerated with the training seed).
	cfg := s.modelConfig().Normalized()
	jobs, capacity, err := s.randomJobs(cfg.TrainJobs, cfg.TasksPerJob, cfg.Seed-s.Seed)
	if err != nil {
		return nil, err
	}
	var tetrisMakespans, sjfMakespans []int64
	for _, g := range jobs {
		for _, entry := range []struct {
			s    sched.Scheduler
			dest *[]int64
		}{
			{baselineSetByName("Tetris"), &tetrisMakespans},
			{baselineSetByName("SJF"), &sjfMakespans},
		} {
			out, err := entry.s.Schedule(g, cluster.Single(capacity))
			if err != nil {
				return nil, err
			}
			*entry.dest = append(*entry.dest, out.Makespan)
		}
	}
	tetrisMean, _ := stats.Mean(tetrisMakespans) //spear:ignoreerr(samples are non-empty by construction)
	sjfMean, _ := stats.Mean(sjfMakespans)       //spear:ignoreerr(samples are non-empty by construction)

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
	var b strings.Builder
	b.WriteString("Fig. 8(b) — DRL learning curve (mean makespan per epoch)\n")
	tabulate(&b, func(w io.Writer) {
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
	fmt.Fprintf(&b, "references: Tetris %.1f, SJF %.1f\n", r.TetrisMean, r.SJFMean)
	if r.CrossEpoch >= 0 {
		fmt.Fprintf(&b, "curve crosses both references at epoch %d\n", r.CrossEpoch)
	} else {
		fmt.Fprintf(&b, "curve has not crossed the references yet (train longer via -full)\n")
	}
	return b.String()
}
