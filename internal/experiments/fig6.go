package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"spear/internal/sched"
	"spear/internal/stats"
)

// Fig6Result holds the per-algorithm makespans and wall-clock scheduling
// times over a batch of random DAGs — Fig. 6(a) reports the makespans,
// Fig. 6(b) the runtimes.
type Fig6Result struct {
	Graphs  int
	Tasks   int
	Budget  int
	Results []AlgorithmResult
}

// Fig6 runs Spear (budget 1000 decaying to 100 at paper scale) and the four
// baselines on a batch of random 100-task DAGs (§V-B1).
func (s *Suite) Fig6() (*Fig6Result, error) {
	if s.fig6 != nil {
		return s.fig6, nil
	}
	nGraphs, tasks, budget, minBudget := 4, 40, 150, 30
	if s.Full {
		nGraphs, tasks, budget, minBudget = 10, 100, 1000, 100
	}
	graphs, capacity, err := s.randomJobs(nGraphs, tasks, 600)
	if err != nil {
		return nil, err
	}
	spear, err := s.spear(budget, minBudget)
	if err != nil {
		return nil, err
	}
	schedulers := append([]sched.Scheduler{spear}, baselineSet()...)
	results, err := runAll(graphs, capacity, schedulers, s.logf)
	if err != nil {
		return nil, err
	}
	s.fig6 = &Fig6Result{Graphs: nGraphs, Tasks: tasks, Budget: budget, Results: results}
	return s.fig6, nil
}

// MakespanTable renders the Fig. 6(a) series: per-algorithm average
// makespans plus Spear's win rate against Graphene.
func (r *Fig6Result) MakespanTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6(a) — makespans over %d random %d-task DAGs (Spear budget %d)\n", r.Graphs, r.Tasks, r.Budget)
	tabulate(&b, func(w io.Writer) {
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
		fmt.Fprintf(&b, "Spear <= Graphene on %d/%d jobs (%.0f%%)\n", wins, r.Graphs, 100*float64(wins)/float64(r.Graphs))
	}
	return b.String()
}

// RuntimeTable renders the Fig. 6(b) series: scheduling wall-clock times.
func (r *Fig6Result) RuntimeTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6(b) — scheduler runtime over %d random %d-task DAGs\n", r.Graphs, r.Tasks)
	tabulate(&b, func(w io.Writer) {
		fmt.Fprintln(w, "algorithm\tmedian\tmean\tmax")
		for _, ar := range r.Results {
			ms := make([]float64, len(ar.Elapsed))
			for i, d := range ar.Elapsed {
				ms[i] = float64(d.Microseconds()) / 1000
			}
			med, _ := stats.Median(ms) //spear:ignoreerr(samples are non-empty by construction)
			mean, _ := stats.Mean(ms)  //spear:ignoreerr(samples are non-empty by construction)
			max, _ := stats.Max(ms)    //spear:ignoreerr(samples are non-empty by construction)
			fmt.Fprintf(w, "%s\t%sms\t%sms\t%sms\n", ar.Name, fmtMS(med), fmtMS(mean), fmtMS(max))
		}
	})
	return b.String()
}

func fmtMS(v float64) string { return fmt.Sprintf("%.1f", v) }

func (r *Fig6Result) byName(name string) *AlgorithmResult {
	for i := range r.Results {
		if r.Results[i].Name == name {
			return &r.Results[i]
		}
	}
	return nil
}

// MeanElapsed returns an algorithm's mean scheduling time.
func (r *Fig6Result) MeanElapsed(name string) time.Duration {
	ar := r.byName(name)
	if ar == nil || len(ar.Elapsed) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ar.Elapsed {
		sum += d
	}
	return sum / time.Duration(len(ar.Elapsed))
}
