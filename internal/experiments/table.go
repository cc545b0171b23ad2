package experiments

import "io"

// result is what a cell computes: its views render their reports from it,
// and WriteCSV exports its raw data for re-plotting.
type result interface {
	WriteCSV(w io.Writer) error
}

// view is one named experiment: a report rendered from its cell's result.
type view[R any] struct {
	name, description string
	render            func(R) string
}

// cell is one row of the experiment table: a computation and the views that
// report it. Views of one cell share the computed result; Run computes the
// requested cells one at a time.
type cell struct {
	// needsModel says the computation schedules with the trained policy
	// network, directly or through Spear.
	needsModel bool
	compute    func(*Suite) (result, error)
	views      []view[result]
}

// newCell builds a row from a typed computation and typed renderers, so a
// view that does not fit its cell's result fails to compile.
func newCell[R result](needsModel bool, compute func(*Suite) (R, error), views ...view[R]) cell {
	c := cell{
		needsModel: needsModel,
		compute:    func(s *Suite) (result, error) { return compute(s) },
	}
	for _, v := range views {
		c.views = append(c.views, view[result]{v.name, v.description, func(r result) string { return v.render(r.(R)) }})
	}
	return c
}

// table declares every experiment once, in paper order. The -list output,
// Names, name validation, the grouping of experiments into cells, model
// pre-training and the CSV export all read it; adding an experiment is
// adding a row (or a view to a row).
var table = []cell{
	newCell(true, (*Suite).Fig3,
		view[*Fig3Result]{"fig3", "motivating example: all schedulers on the 8-task DAG", (*Fig3Result).String}),
	newCell(true, (*Suite).Fig6,
		view[*comparison]{"fig6a", "makespans of Spear vs baselines on random 100-task DAGs", fig6aTable},
		view[*comparison]{"fig6b", "scheduler runtime distribution (same runs as fig6a)", fig6bTable}),
	newCell(false, (*Suite).Fig7,
		view[*Fig7Result]{"fig7a", "pure-MCTS makespan vs search budget", (*Fig7Result).MakespanTable},
		view[*Fig7Result]{"fig7b", "fraction of jobs where MCTS beats Tetris vs budget", (*Fig7Result).WinRateTable}),
	newCell(false, (*Suite).Table1,
		view[*Table1Result]{"table1", "MCTS runtime vs graph size and budget", (*Table1Result).String}),
	newCell(true, (*Suite).Fig8a,
		view[*comparison]{"fig8a", "Spear with 10% budget vs pure MCTS and baselines", fig8aTable}),
	newCell(true, (*Suite).Fig8b,
		view[*Fig8bResult]{"fig8b", "DRL learning curve vs Tetris/SJF reference", (*Fig8bResult).String}),
	newCell(false, (*Suite).Fig9Trace,
		view[*TraceResult]{"fig9a", "trace task-count distributions", (*TraceResult).CountTable},
		view[*TraceResult]{"fig9b", "trace runtime distributions", (*TraceResult).RuntimeTable}),
	newCell(true, (*Suite).Fig9c,
		view[*Fig9cResult]{"fig9c", "trace-driven makespan reduction of Spear over Graphene", (*Fig9cResult).String}),
	newCell(true, (*Suite).Ablation,
		view[*comparison]{"ablation", "design-choice isolation: DRL expand/rollout, budget decay, rollouts per expansion", ablationTable}),
	newCell(true, (*Suite).Gap,
		view[*GapResult]{"gap", "optimality gap vs exact branch-and-bound on small jobs", (*GapResult).String}),
}

// Runner names one experiment of the table.
type Runner struct {
	Name        string
	Description string
}

// Registry lists every experiment in paper order.
func Registry() []Runner {
	var out []Runner
	for _, c := range table {
		for _, v := range c.views {
			out = append(out, Runner{v.name, v.description})
		}
	}
	return out
}

// Names returns the experiment names in paper order.
func Names() []string {
	rs := Registry()
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Name
	}
	return out
}
