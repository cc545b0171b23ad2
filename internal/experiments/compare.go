package experiments

import (
	"fmt"
	"io"
	"strconv"

	"spear/internal/stats"
)

// comparison is the result of running several schedulers over one batch of
// random DAGs — the shape fig6a/fig6b, fig8a and the ablation share. Each
// experiment keeps its own title; the rows and the CSV export are common.
type comparison struct {
	// Label heads the first column: "algorithm", or "variant" when the rows
	// are configurations of one scheduler.
	Label  string
	Graphs int
	Tasks  int
	// Budget is the initial search budget the title reports: Spear's in
	// fig6, pure MCTS's in fig8a, every variant's in the ablation.
	Budget int
	// SpearBudget is Spear's reduced budget in fig8a; zero elsewhere.
	SpearBudget int
	Results     []AlgorithmResult
}

// meanTable renders the "avg makespan / avg time" table fig8a and the
// ablation print under their titles.
func (r *comparison) meanTable(title string) string {
	return tabulate(title, func(w io.Writer) {
		fmt.Fprintf(w, "%s\tavg makespan\tavg time\n", r.Label)
		for _, ar := range r.Results {
			mean, _ := stats.Mean(ar.Makespans)  //spear:ignoreerr(samples are non-empty by construction)
			meanMS, _ := stats.Mean(ar.millis()) //spear:ignoreerr(samples are non-empty by construction)
			fmt.Fprintf(w, "%s\t%.1f\t%.0fms\n", ar.Name, mean, meanMS)
		}
	})
}

func (r *comparison) byName(name string) *AlgorithmResult {
	for i := range r.Results {
		if r.Results[i].Name == name {
			return &r.Results[i]
		}
	}
	return nil
}

// WriteCSV exports one row per (scheduler, job) with makespan and elapsed
// milliseconds — the raw data behind every table rendered from r.
func (r *comparison) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, ar := range r.Results {
		ms := ar.millis()
		for i, m := range ar.Makespans {
			rows = append(rows, []string{ar.Name, strconv.Itoa(i), itoa64(m), ftoa(ms[i])})
		}
	}
	return writeCSV(w, []string{r.Label, "job", "makespan", "elapsedMillis"}, rows)
}
