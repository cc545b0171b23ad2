package experiments

import (
	"fmt"
	"io"
	"time"

	"spear/internal/cluster"
	"spear/internal/mcts"
)

// Table1Result holds MCTS wall-clock runtimes across graph sizes and
// budgets (paper Table I): runtime grows with both.
type Table1Result struct {
	Sizes   []int
	Budgets []int
	// Elapsed[i][j] is the wall-clock time of the Schedule call for
	// Sizes[i] x Budgets[j].
	Elapsed [][]time.Duration
}

// Table1 measures the MCTS-only scheduler's runtime on different scales.
func (s *Suite) Table1() (*Table1Result, error) {
	result := &Table1Result{Sizes: s.params.table1Sizes, Budgets: s.params.table1Budgets}
	for _, size := range result.Sizes {
		graphs, capacity, err := s.randomJobs(1, size, 800+int64(size))
		if err != nil {
			return nil, err
		}
		row := make([]time.Duration, 0, len(result.Budgets))
		for _, budget := range result.Budgets {
			s.logf("table1: size %d budget %d\n", size, budget)
			searcher := mcts.New(s.searchConfig(budget, budget/10))
			began := time.Now()
			if _, err := searcher.Schedule(graphs[0], cluster.Single(capacity)); err != nil {
				return nil, err
			}
			row = append(row, time.Since(began))
		}
		result.Elapsed = append(result.Elapsed, row)
	}
	return result, nil
}

// String renders Table I.
func (r *Table1Result) String() string {
	return tabulate("Table I — MCTS-only scheduling runtime\n", func(w io.Writer) {
		fmt.Fprint(w, "tasks \\ budget")
		for _, budget := range r.Budgets {
			fmt.Fprintf(w, "\t%d", budget)
		}
		fmt.Fprintln(w)
		for i, size := range r.Sizes {
			fmt.Fprintf(w, "%d", size)
			for _, d := range r.Elapsed[i] {
				fmt.Fprintf(w, "\t%v", d.Round(time.Millisecond))
			}
			fmt.Fprintln(w)
		}
	})
}
