package experiments

import (
	"fmt"
	"io"

	"spear/internal/sched"
	"spear/internal/stats"
)

// Fig6 runs Spear (budget 1000 decaying to 100) and the four
// baselines on a batch of random 100-task DAGs (§V-B1). Fig. 6(a) reports
// the per-algorithm makespans, Fig. 6(b) the wall-clock scheduling times.
func (s *Suite) Fig6() (*comparison, error) {
	p := s.params.fig6
	graphs, capacity, err := s.randomJobs(p.graphs, p.tasks, 600)
	if err != nil {
		return nil, err
	}
	spear, err := s.spear(p.budget, p.minBudget)
	if err != nil {
		return nil, err
	}
	schedulers := append([]sched.Scheduler{spear}, baselineSet()...)
	results, err := runAll(graphs, capacity, schedulers, s.logf)
	if err != nil {
		return nil, err
	}
	return &comparison{Label: "algorithm", Graphs: p.graphs, Tasks: p.tasks, Budget: p.budget, Results: results}, nil
}

// fig6aTable renders the Fig. 6(a) series: per-algorithm average makespans
// plus Spear's win rate against Graphene.
func fig6aTable(r *comparison) string {
	title := fmt.Sprintf("Fig. 6(a) — makespans over %d random %d-task DAGs (Spear budget %d)\n", r.Graphs, r.Tasks, r.Budget)
	out := tabulate(title, func(w io.Writer) {
		fmt.Fprintln(w, "algorithm\tavg makespan\tmin\tmax")
		for _, ar := range r.Results {
			mean, _ := stats.Mean(ar.Makespans) //spear:ignoreerr(samples are non-empty by construction)
			min, _ := stats.Min(ar.Makespans)   //spear:ignoreerr(samples are non-empty by construction)
			max, _ := stats.Max(ar.Makespans)   //spear:ignoreerr(samples are non-empty by construction)
			fmt.Fprintf(w, "%s\t%.1f\t%d\t%d\n", ar.Name, mean, min, max)
		}
	})

	if spear, graphene := r.byName("Spear"), r.byName("Graphene"); spear != nil && graphene != nil {
		wins := 0
		for i := range spear.Makespans {
			if spear.Makespans[i] <= graphene.Makespans[i] {
				wins++
			}
		}
		out += fmt.Sprintf("Spear <= Graphene on %d/%d jobs (%.0f%%)\n", wins, r.Graphs, 100*float64(wins)/float64(r.Graphs))
	}
	return out
}

// fig6bTable renders the Fig. 6(b) series: scheduling wall-clock times.
func fig6bTable(r *comparison) string {
	return tabulate(fmt.Sprintf("Fig. 6(b) — scheduler runtime over %d random %d-task DAGs\n", r.Graphs, r.Tasks), func(w io.Writer) {
		fmt.Fprintln(w, "algorithm\tmedian\tmean\tmax")
		for _, ar := range r.Results {
			ms := ar.millis()
			med, _ := stats.Median(ms) //spear:ignoreerr(samples are non-empty by construction)
			mean, _ := stats.Mean(ms)  //spear:ignoreerr(samples are non-empty by construction)
			max, _ := stats.Max(ms)    //spear:ignoreerr(samples are non-empty by construction)
			fmt.Fprintf(w, "%s\t%.1fms\t%.1fms\t%.1fms\n", ar.Name, med, mean, max)
		}
	})
}
