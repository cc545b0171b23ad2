package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"

	"spear/internal/cluster"
	"spear/internal/mcts"
)

// Table1Result holds MCTS wall-clock runtimes across graph sizes and
// budgets (paper Table I): runtime grows with both.
type Table1Result struct {
	Sizes   []int
	Budgets []int
	// Elapsed[i][j] is the median wall-clock time of table1Repeats Schedule
	// calls for Sizes[i] x Budgets[j].
	Elapsed [][]time.Duration
}

// table1Repeats is how many times Table1 times each cell: one call moved
// 1.56x between two runs of the same search.
const table1Repeats = 5

// Table1 measures the MCTS-only scheduler's runtime on different scales.
// Each cell is the median of table1Repeats calls, each on a fresh searcher
// with the same seed, so each call does the same search: a repeat that
// finds another makespan is an error.
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
			elapsed := make([]time.Duration, table1Repeats)
			var makespan int64
			for k := range elapsed {
				searcher := mcts.New(s.searchConfig(budget, budget/10))
				began := time.Now()
				out, err := searcher.Schedule(graphs[0], cluster.Single(capacity))
				elapsed[k] = time.Since(began)
				if err != nil {
					return nil, err
				}
				if k > 0 && out.Makespan != makespan {
					return nil, fmt.Errorf("experiments: table1 size %d budget %d: repeat %d found makespan %d, the first %d", size, budget, k, out.Makespan, makespan)
				}
				makespan = out.Makespan
			}
			slices.Sort(elapsed)
			row = append(row, elapsed[table1Repeats/2])
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
