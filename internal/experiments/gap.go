package experiments

import (
	"fmt"
	"io"
	"strconv"

	"spear/internal/exact"
	"spear/internal/mcts"
	"spear/internal/sched"
	"spear/internal/stats"
)

// GapResult measures optimality gaps on small jobs where the exact
// branch-and-bound solver can prove the optimum — a validation experiment
// beyond the paper: how far from optimal are the search-based schedulers
// and the heuristics, really?
type GapResult struct {
	Jobs     int
	Tasks    int
	Optimal  []int64
	PerAlgo  []AlgorithmResult
	MeanGaps []float64 // aligned with PerAlgo, in percent
}

// Gap runs the optimality-gap study.
func (s *Suite) Gap() (*GapResult, error) {
	p := s.params.gap
	graphs, capacity, err := s.randomJobs(p.graphs, p.tasks, 1100)
	if err != nil {
		return nil, err
	}

	solver := exact.New(0)
	solver.Obs = s.Obs
	spear, err := s.spear(200, 50)
	if err != nil {
		return nil, err
	}
	schedulers := append([]sched.Scheduler{
		solver,
		mcts.New(s.searchConfig(500, 100)),
		spear,
	}, baselineSet()...)
	results, err := runAll(graphs, capacity, schedulers, s.logf)
	if err != nil {
		return nil, err
	}
	optimal, results := results[0].Makespans, results[1:]

	out := &GapResult{Jobs: p.graphs, Tasks: p.tasks, Optimal: optimal, PerAlgo: results}
	for _, ar := range results {
		gaps := make([]float64, len(ar.Makespans))
		for i, m := range ar.Makespans {
			gaps[i] = 100 * float64(m-optimal[i]) / float64(optimal[i])
		}
		mean, _ := stats.Mean(gaps) //spear:ignoreerr(samples are non-empty by construction)
		out.MeanGaps = append(out.MeanGaps, mean)
	}
	return out, nil
}

// String renders the gap table.
func (r *GapResult) String() string {
	return tabulate(fmt.Sprintf("Optimality gap — %d x %d-task jobs vs proven optimum (branch and bound)\n", r.Jobs, r.Tasks), func(w io.Writer) {
		fmt.Fprintln(w, "algorithm\tmean gap\tjobs at optimum")
		for i, ar := range r.PerAlgo {
			atOpt := 0
			for j, m := range ar.Makespans {
				if m == r.Optimal[j] {
					atOpt++
				}
			}
			fmt.Fprintf(w, "%s\t%.1f%%\t%d/%d\n", ar.Name, r.MeanGaps[i], atOpt, r.Jobs)
		}
	})
}

// WriteCSV exports the per-job makespans next to the proven optimum.
func (r *GapResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	for i, ar := range r.PerAlgo {
		for j, m := range ar.Makespans {
			rows = append(rows, []string{
				ar.Name,
				strconv.Itoa(j),
				itoa64(m),
				itoa64(r.Optimal[j]),
				ftoa(r.MeanGaps[i]),
			})
		}
	}
	return writeCSV(w, []string{"algorithm", "job", "makespan", "optimal", "meanGapPct"}, rows)
}
