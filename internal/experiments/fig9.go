package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"spear/internal/baselines"
	"spear/internal/sched"
	"spear/internal/stats"
	"spear/internal/workload"
)

// TraceResult holds the jobs of the synthetic production trace and their
// summary statistics (Fig. 9(a)/9(b)).
type TraceResult struct {
	Jobs  workload.Trace
	Stats workload.TraceStats
}

// Fig9Trace generates (once) the synthetic 99-job MapReduce trace.
func (s *Suite) Fig9Trace() (*TraceResult, error) {
	if s.trace != nil {
		return s.trace, nil
	}
	jobs, err := workload.GenerateTrace(rand.New(rand.NewSource(s.Seed + 900)))
	if err != nil {
		return nil, err
	}
	s.trace = &TraceResult{Jobs: jobs, Stats: jobs.Stats()}
	return s.trace, nil
}

// CountTable renders the Fig. 9(a) statistics (task counts per stage).
func (r *TraceResult) CountTable() string {
	return tabulate("Fig. 9(a) — tasks per job in the synthetic trace (paper: median 14/17, max 29/38)\n", func(w io.Writer) {
		fmt.Fprintln(w, "stage\tmedian\tp90\tmax")
		mp90, _ := stats.Percentile(r.Stats.MapTaskCounts, 90) //spear:ignoreerr(samples are non-empty by construction)
		rp90, _ := stats.Percentile(r.Stats.RedTaskCounts, 90) //spear:ignoreerr(samples are non-empty by construction)
		fmt.Fprintf(w, "map\t%d\t%.0f\t%d\n", r.Stats.MedianMaps, mp90, r.Stats.MaxMaps)
		fmt.Fprintf(w, "reduce\t%d\t%.0f\t%d\n", r.Stats.MedianReduces, rp90, r.Stats.MaxReduces)
	})
}

// RuntimeTable renders the Fig. 9(b) statistics (task runtimes per stage).
func (r *TraceResult) RuntimeTable() string {
	return tabulate("Fig. 9(b) — task runtimes in the synthetic trace (paper: median 73/32)\n", func(w io.Writer) {
		fmt.Fprintln(w, "stage\tmedian\tp90\tmax mean per job")
		mp90, _ := stats.Percentile(r.Stats.MapRuntimes, 90) //spear:ignoreerr(samples are non-empty by construction)
		rp90, _ := stats.Percentile(r.Stats.RedRuntimes, 90) //spear:ignoreerr(samples are non-empty by construction)
		fmt.Fprintf(w, "map\t%d\t%.0f\t%.0f\n", r.Stats.MedianMapRT, mp90, r.Stats.MaxMeanMapRT)
		fmt.Fprintf(w, "reduce\t%d\t%.0f\t%.0f\n", r.Stats.MedianReduceRT, rp90, r.Stats.MaxMeanRedRT)
	})
}

// Fig9cResult is the trace-driven comparison: the distribution of
// makespan reductions of Spear relative to Graphene (paper Fig. 9(c):
// Spear no worse on ~90% of jobs, up to ~20% better).
type Fig9cResult struct {
	Jobs          int
	Reductions    []float64 // (graphene - spear) / graphene, one per job
	NoWorseShare  float64
	MaxReduction  float64
	MeanReduction float64
}

// Fig9c schedules trace jobs with Spear (budget 100 decaying to 50, §V-C)
// and Graphene, reporting per-job makespan reduction.
func (s *Suite) Fig9c() (*Fig9cResult, error) {
	tr, err := s.Fig9Trace()
	if err != nil {
		return nil, err
	}
	p := s.params.fig9c
	spear, err := s.spear(p.budget, p.minBudget)
	if err != nil {
		return nil, err
	}
	runs, err := runAll(tr.Jobs[:p.graphs], workload.TraceCapacity(), []sched.Scheduler{spear, baselines.NewGrapheneScheduler()}, s.logf)
	if err != nil {
		return nil, err
	}

	result := &Fig9cResult{Jobs: p.graphs}
	noWorse := 0
	for i, graphene := range runs[1].Makespans {
		reduction := float64(graphene-runs[0].Makespans[i]) / float64(graphene)
		result.Reductions = append(result.Reductions, reduction)
		if reduction >= 0 {
			noWorse++
		}
	}
	result.NoWorseShare = float64(noWorse) / float64(p.graphs)
	result.MaxReduction, _ = stats.Max(result.Reductions)   //spear:ignoreerr(samples are non-empty by construction)
	result.MeanReduction, _ = stats.Mean(result.Reductions) //spear:ignoreerr(samples are non-empty by construction)
	return result, nil
}

// String renders the Fig. 9(c) CDF summary.
func (r *Fig9cResult) String() string {
	title := fmt.Sprintf("Fig. 9(c) — reduction in job duration vs Graphene over %d trace jobs\n", r.Jobs)
	return tabulate(title, func(w io.Writer) {
		fmt.Fprintln(w, "percentile\treduction")
		for _, p := range []float64{10, 25, 50, 75, 90, 100} {
			v, _ := stats.Percentile(r.Reductions, p) //spear:ignoreerr(samples are non-empty by construction)
			fmt.Fprintf(w, "p%.0f\t%.1f%%\n", p, 100*v)
		}
	}) + fmt.Sprintf("Spear no worse than Graphene on %.0f%% of jobs; max reduction %.1f%%; mean %.1f%%\n",
		100*r.NoWorseShare, 100*r.MaxReduction, 100*r.MeanReduction)
}
