package experiments

import (
	"fmt"
	"io"

	"spear/internal/dag"
	"spear/internal/sched"
	"spear/internal/workload"
)

// Fig3Result reports every scheduler's makespan on the motivating example,
// in units of the long-task runtime T. Results holds one job per scheduler,
// Spear first.
type Fig3Result struct {
	T       int64
	Results []AlgorithmResult
}

// Fig3 runs the motivating-example comparison (paper Fig. 3): Spear's
// search should land in the ~2T region while the work-conserving heuristics
// are trapped at ~3T.
func (s *Suite) Fig3() (*Fig3Result, error) {
	const T = 100
	g, err := workload.MotivatingExample(T)
	if err != nil {
		return nil, err
	}
	capacity := workload.MotivatingCapacity()

	spear, err := s.spear(2000, 200)
	if err != nil {
		return nil, err
	}
	schedulers := append([]sched.Scheduler{spear}, baselineSet()...)
	results, err := runAll([]*dag.Graph{g}, capacity, schedulers, s.logf)
	if err != nil {
		return nil, err
	}
	return &Fig3Result{T: T, Results: results}, nil
}

// String renders the Fig. 3 table.
func (r *Fig3Result) String() string {
	return tabulate(fmt.Sprintf("Fig. 3 — motivating example (T = %d)\n", r.T), func(w io.Writer) {
		fmt.Fprintln(w, "algorithm\tmakespan\tin units of T")
		for _, ar := range r.Results {
			m := ar.Makespans[0]
			fmt.Fprintf(w, "%s\t%d\t%.2fT\n", ar.Name, m, float64(m)/float64(r.T))
		}
	})
}
