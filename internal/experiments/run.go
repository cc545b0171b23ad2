package experiments

import (
	"errors"
	"fmt"
	"io"
	"sort"
)

// RunOptions configures Run.
type RunOptions struct {
	// CSV, when non-nil, opens the machine-readable sink for one experiment;
	// Run writes the experiment's CSV into it and closes it.
	CSV func(name string) (io.WriteCloser, error)
}

// report is one requested experiment: its name and how to render it.
type report struct {
	name   string
	render func(result) string
}

// cellRun is one unit of work: a table cell and its requested views in
// requested order.
type cellRun struct {
	compute func(*Suite) (result, error)
	reports []report
}

// Run executes the named experiments: it is the only way one runs. The
// requested views are grouped by table cell and each cell is computed once,
// one at a time in requested order, against s itself, so the wall-clock
// columns (Table I, Fig. 6(b), the ablation) never share the machine with
// another cell. If any requested experiment needs the trained model, it is
// trained once up front. Each report reaches w as soon as its cell is done,
// under a "==== name ====" header when more than one was requested.
//
// A failing experiment does not stop the others: the returned error joins
// every failure, each prefixed with its experiment's name.
func (s *Suite) Run(names []string, opt RunOptions, w io.Writer) error {
	var (
		runs   []*cellRun
		byCell = make(map[*cell]*cellRun)
		seen   = make(map[string]bool, len(names))
		train  bool
	)
	for _, name := range names {
		if seen[name] {
			continue
		}
		seen[name] = true
		c, v := lookup(name)
		if c == nil {
			known := Names()
			sort.Strings(known)
			return fmt.Errorf("experiments: unknown experiment %q (known: %v)", name, known)
		}
		run := byCell[c]
		if run == nil {
			run = &cellRun{compute: c.compute}
			byCell[c] = run
			runs = append(runs, run)
		}
		run.reports = append(run.reports, report{name: name, render: v.render})
		train = train || c.needsModel
	}
	if train {
		if _, err := s.TrainModel(); err != nil {
			return err
		}
	}

	var errs []error
	for _, run := range runs {
		res, err := run.compute(s)
		if err != nil {
			for _, r := range run.reports {
				errs = append(errs, fmt.Errorf("%s: %w", r.name, err))
			}
		}
		for _, r := range run.reports {
			var text string
			if err == nil {
				text = r.render(res)
			}
			if len(names) > 1 {
				text = "==== " + r.name + " ====\n" + text + "\n"
			}
			if _, werr := io.WriteString(w, text); werr != nil {
				return errors.Join(append(errs, werr)...)
			}
			if err == nil && opt.CSV != nil {
				if cerr := exportCSV(opt.CSV, r.name, res); cerr != nil {
					errs = append(errs, cerr)
				}
			}
		}
	}
	return errors.Join(errs...)
}

// lookup finds the cell and view an experiment name denotes; both are nil
// for a name the table does not declare.
func lookup(name string) (*cell, *view[result]) {
	for i := range table {
		for j := range table[i].views {
			if table[i].views[j].name == name {
				return &table[i], &table[i].views[j]
			}
		}
	}
	return nil, nil
}

// exportCSV writes res into the sink open returns for name and closes it.
func exportCSV(open func(name string) (io.WriteCloser, error), name string, res result) error {
	f, err := open(name)
	if err == nil {
		err = errors.Join(res.WriteCSV(f), f.Close())
	}
	if err != nil {
		return fmt.Errorf("%s csv: %w", name, err)
	}
	return nil
}
