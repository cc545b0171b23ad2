package experiments

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"spear/internal/obs"
)

// ParallelOptions configures Run.
type ParallelOptions struct {
	// Jobs bounds the number of table cells in flight. Values below 1 mean 1
	// (one cell at a time, in requested order).
	Jobs int
	// CSV, when non-nil, opens the machine-readable sink for one experiment;
	// Run writes the experiment's CSV into it and closes it.
	CSV func(name string) (io.WriteCloser, error)
}

// report is one requested experiment. Its cell's worker fills text and err
// and then closes done; Run reads them only after done.
type report struct {
	name   string
	render func(result) string
	text   string
	err    error
	done   chan struct{}
}

// cellRun is one unit of work: a table cell, its requested views in
// requested order, and the private shadow Suite it computes against.
type cellRun struct {
	compute func(*Suite) (result, error)
	shadow  *Suite
	reports []*report
}

// shadowSuite clones the suite for one cell: the trained network, the
// learning curve and all settings are shared (they are read-only during
// experiments), while the trace cache and the metrics registry are private
// so concurrent cells never write to the same state.
func (s *Suite) shadowSuite() *Suite {
	shadow := *s
	shadow.trace = nil
	if s.Obs != nil {
		shadow.Obs = obs.NewRegistry()
	}
	return &shadow
}

// Run executes the named experiments: it is the only way one runs. The
// requested views are grouped by table cell, each cell is computed once
// against a private shadow Suite (own caches, own obs registry) on a pool of
// opt.Jobs workers that take cells in requested order, and the trained model
// is shared: if any requested experiment needs it, it is trained once up
// front on s. Reports reach w in requested order, each as soon as it and
// every earlier one are complete, under a "==== name ====" header when more
// than one was requested.
//
// The returned snapshot merges s.Obs with every cell's private registry
// (counters sum, gauges keep their maximum); it is nil when the suite has no
// Obs registry. A failing experiment does not stop the others: the returned
// error joins every failure, each prefixed with its experiment's name.
func (s *Suite) Run(names []string, opt ParallelOptions, w io.Writer) (obs.Snapshot, error) {
	var (
		runs    []*cellRun
		reports []*report
		byCell  = make(map[*cell]*cellRun)
		seen    = make(map[string]bool, len(names))
		train   bool
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
			return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", name, known)
		}
		run := byCell[c]
		if run == nil {
			run = &cellRun{compute: c.compute}
			byCell[c] = run
			runs = append(runs, run)
		}
		r := &report{name: name, render: v.render, done: make(chan struct{})}
		run.reports = append(run.reports, r)
		reports = append(reports, r)
		train = train || c.needsModel
	}

	// Train before cloning, so every cell shares one network.
	if train {
		if _, err := s.TrainModel(); err != nil {
			return nil, err
		}
	}
	queue := make(chan *cellRun, len(runs)) // sized to the number of sends
	for _, run := range runs {
		run.shadow = s.shadowSuite()
		queue <- run
	}
	close(queue)

	workers := opt.Jobs
	if workers < 1 {
		workers = 1
	}
	if workers > len(runs) {
		workers = len(runs)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := range queue {
				run.execute(opt.CSV)
			}
		}()
	}

	var errs []error
	var writeErr error
	for _, r := range reports {
		<-r.done
		if r.err != nil {
			errs = append(errs, r.err)
		}
		if writeErr != nil {
			continue
		}
		text := r.text
		if len(names) > 1 {
			text = "==== " + r.name + " ====\n" + text + "\n"
		}
		_, writeErr = io.WriteString(w, text)
	}
	wg.Wait()
	if writeErr != nil {
		errs = append(errs, writeErr)
	}

	var merged obs.Snapshot
	if s.Obs != nil {
		snaps := []obs.Snapshot{s.Obs.Snapshot()}
		for _, run := range runs {
			snaps = append(snaps, run.shadow.Obs.Snapshot())
		}
		merged = obs.MergeSnapshots(snaps...)
	}
	return merged, errors.Join(errs...)
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

// execute computes the cell once, then renders and exports each requested
// view, releasing each report to Run as soon as it is final.
func (c *cellRun) execute(csv func(name string) (io.WriteCloser, error)) {
	res, err := c.compute(c.shadow)
	if err != nil {
		for _, r := range c.reports {
			r.err = fmt.Errorf("%s: %w", r.name, err)
			close(r.done)
		}
		return
	}
	for _, r := range c.reports {
		r.text = r.render(res)
		if csv != nil {
			r.err = exportCSV(csv, r.name, res)
		}
		close(r.done)
	}
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
