package experiments

import (
	"encoding/csv"
	"io"
	"strconv"

	"spear/internal/dag"
	"spear/internal/drl"
	"spear/internal/workload"
)

// This file provides machine-readable CSV exports of every experiment
// result, so the figures can be re-plotted outside Go.

func writeCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func itoa64(v int64) string { return strconv.FormatInt(v, 10) }

func ftoa(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// WriteCSV exports the per-algorithm makespan of the motivating example.
func (r *Fig3Result) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(r.Results))
	for _, ar := range r.Results {
		rows = append(rows, []string{ar.Name, itoa64(ar.Makespans[0])})
	}
	return writeCSV(w, []string{"algorithm", "makespan"}, rows)
}

// WriteCSV exports the budget sweep behind Fig. 7(a)/7(b).
func (r *Fig7Result) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			strconv.Itoa(p.Budget),
			ftoa(p.MeanMakespan),
			ftoa(p.TetrisMean),
			strconv.Itoa(p.BeatsTetris),
			strconv.Itoa(p.TiesTetris),
			strconv.Itoa(p.Jobs),
			ftoa(p.MeanElapsedMS),
		})
	}
	return writeCSV(w, []string{"budget", "meanMakespan", "tetrisMean", "wins", "ties", "jobs", "meanElapsedMillis"}, rows)
}

// WriteCSV exports Table I as (tasks, budget, elapsedMillis) triples.
func (r *Table1Result) WriteCSV(w io.Writer) error {
	var rows [][]string
	for i, size := range r.Sizes {
		for j, budget := range r.Budgets {
			rows = append(rows, []string{
				strconv.Itoa(size),
				strconv.Itoa(budget),
				ftoa(float64(r.Elapsed[i][j].Microseconds()) / 1000),
			})
		}
	}
	return writeCSV(w, []string{"tasks", "budget", "elapsedMillis"}, rows)
}

// WriteCSV exports the learning curve plus the reference lines.
func (r *Fig8bResult) WriteCSV(w io.Writer) error {
	if err := drl.WriteCurveCSV(w, r.Curve); err != nil {
		return err
	}
	return writeCSV(w, []string{"reference", "meanMakespan"}, [][]string{
		{"Tetris", ftoa(r.TetrisMean)},
		{"SJF", ftoa(r.SJFMean)},
	})
}

// WriteCSV exports every trace task as (job, stage, runtime), the raw data
// of both Fig. 9(a) (tasks per job and stage) and Fig. 9(b) (runtimes).
func (r *TraceResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	for i, g := range r.Jobs {
		for id := 0; id < g.NumTasks(); id++ {
			stage := "reduce"
			if workload.IsMapTask(g, dag.TaskID(id)) {
				stage = "map"
			}
			rows = append(rows, []string{strconv.Itoa(i), stage, itoa64(g.Task(dag.TaskID(id)).Runtime)})
		}
	}
	return writeCSV(w, []string{"job", "stage", "runtime"}, rows)
}

// WriteCSV exports the per-job reduction of Fig. 9(c).
func (r *Fig9cResult) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(r.Reductions))
	for i, red := range r.Reductions {
		rows = append(rows, []string{strconv.Itoa(i), ftoa(red)})
	}
	return writeCSV(w, []string{"job", "reduction"}, rows)
}
