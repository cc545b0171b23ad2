package experiments

import (
	"fmt"
	"io"

	"spear/internal/baselines"
	"spear/internal/mcts"
	"spear/internal/sched"
	"spear/internal/stats"
)

// Fig7Point is one budget setting of the pure-MCTS sweep.
type Fig7Point struct {
	Budget        int
	MeanMakespan  float64
	TetrisMean    float64
	BeatsTetris   int // jobs where MCTS makespan < Tetris
	TiesTetris    int
	Jobs          int
	MeanElapsedMS float64
}

// Fig7Result is the budget sweep behind Fig. 7(a) (makespan vs budget) and
// Fig. 7(b) (win rate vs Tetris).
type Fig7Result struct {
	Tasks  int
	Points []Fig7Point
}

// Fig7 sweeps the pure-MCTS budget over a batch of random DAGs (§V-B2):
// makespan should fall as budget grows, and the fraction of jobs where MCTS
// beats Tetris should rise.
func (s *Suite) Fig7() (*Fig7Result, error) {
	p := s.params.fig7
	graphs, capacity, err := s.randomJobs(p.graphs, p.tasks, 700)
	if err != nil {
		return nil, err
	}

	tetris, err := runAll(graphs, capacity, []sched.Scheduler{baselines.NewTetrisScheduler()}, s.logf)
	if err != nil {
		return nil, err
	}
	tetrisMakespans := tetris[0].Makespans
	tetrisMean, _ := stats.Mean(tetrisMakespans) //spear:ignoreerr(samples are non-empty by construction)

	result := &Fig7Result{Tasks: p.tasks}
	for _, budget := range s.params.fig7Budgets {
		s.logf("fig7: budget %d\n", budget)
		point := Fig7Point{Budget: budget, Jobs: len(graphs), TetrisMean: tetrisMean}
		runs, err := runAll(graphs, capacity, []sched.Scheduler{mcts.New(s.searchConfig(budget, p.minBudget))}, s.logf)
		if err != nil {
			return nil, err
		}
		for i, m := range runs[0].Makespans {
			switch {
			case m < tetrisMakespans[i]:
				point.BeatsTetris++
			case m == tetrisMakespans[i]:
				point.TiesTetris++
			}
		}
		point.MeanMakespan, _ = stats.Mean(runs[0].Makespans) //spear:ignoreerr(samples are non-empty by construction)
		point.MeanElapsedMS, _ = stats.Mean(runs[0].millis()) //spear:ignoreerr(samples are non-empty by construction)
		result.Points = append(result.Points, point)
	}
	return result, nil
}

// MakespanTable renders the Fig. 7(a) series.
func (r *Fig7Result) MakespanTable() string {
	title := fmt.Sprintf("Fig. 7(a) — pure MCTS makespan vs budget (%d-task DAGs, %d jobs)\n", r.Tasks, r.Points[0].Jobs)
	return tabulate(title, func(w io.Writer) {
		fmt.Fprintln(w, "budget\tavg makespan\tavg time")
		for _, p := range r.Points {
			fmt.Fprintf(w, "%d\t%.1f\t%.0fms\n", p.Budget, p.MeanMakespan, p.MeanElapsedMS)
		}
	}) + fmt.Sprintf("(Tetris reference: %.1f)\n", r.Points[0].TetrisMean)
}

// WinRateTable renders the Fig. 7(b) series.
func (r *Fig7Result) WinRateTable() string {
	return tabulate("Fig. 7(b) — fraction of jobs where MCTS beats Tetris\n", func(w io.Writer) {
		fmt.Fprintln(w, "budget\twins\tties\tjobs\twin rate")
		for _, p := range r.Points {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.0f%%\n", p.Budget, p.BeatsTetris, p.TiesTetris, p.Jobs,
				100*float64(p.BeatsTetris)/float64(p.Jobs))
		}
	})
}
