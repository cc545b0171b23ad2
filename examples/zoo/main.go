// Scheduler zoo: run every scheduling algorithm in the library but the
// exact solver — online heuristics, annealing, pure search and DRL-guided
// Spear — on the same random job, print the league table, and export the
// winner's schedule as SVG and the job as JSON.
//
// Run with:
//
//	go run ./examples/zoo [-tasks 60] [-out-dir /tmp]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
	"time"

	"spear"
	"spear/models"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "zoo:", err)
		os.Exit(1)
	}
}

func run() error {
	tasks := flag.Int("tasks", 60, "tasks in the generated job")
	seed := flag.Int64("seed", 7, "random seed")
	outDir := flag.String("out-dir", ".", "directory for schedule.svg and job.json")
	flag.Parse()

	cfg := spear.DefaultRandomJobConfig()
	cfg.NumTasks = *tasks
	job, err := spear.RandomJob(*seed, cfg)
	if err != nil {
		return err
	}
	capacity := cfg.Capacity()
	lb, err := spear.MakespanLowerBound(job, capacity)
	if err != nil {
		return err
	}
	fmt.Printf("job: %d tasks, %d levels, critical path %d, lower bound %d\n",
		job.NumTasks(), job.NumLevels(), spear.CriticalPath(job), lb)

	// Spear schedules with the checked-in policy (models/policy.gob);
	// spear-train retrains it.
	net, err := models.Load("")
	if err != nil {
		return err
	}
	spearSched, err := spear.NewSpear(net, spear.DefaultFeatures(), spear.SpearConfig{
		InitialBudget: 150, MinBudget: 30, Seed: *seed,
	})
	if err != nil {
		return err
	}

	schedulers := []spear.Scheduler{
		spearSched,
		spear.NewMCTS(spear.MCTSConfig{InitialBudget: 400, MinBudget: 50, Seed: *seed}),
		spear.NewGraphene(),
		spear.NewTetris(),
		spear.NewCP(),
		spear.NewSJF(),
		spear.NewAnnealing(500, *seed),
		spear.NewRandom(*seed),
	}

	type row struct {
		name     string
		makespan int64
		util     float64
		elapsed  time.Duration
		schedule *spear.Schedule
	}
	rows := make([]row, 0, len(schedulers))
	for _, s := range schedulers {
		began := time.Now()
		out, err := s.Schedule(job, spear.SingleMachine(capacity))
		elapsed := time.Since(began)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name(), err)
		}
		if err := spear.Validate(job, spear.SingleMachine(capacity), out); err != nil {
			return fmt.Errorf("%s produced an invalid schedule: %w", s.Name(), err)
		}
		u, err := spear.ComputeUtilization(job, spear.SingleMachine(capacity), out)
		if err != nil {
			return err
		}
		rows = append(rows, row{s.Name(), out.Makespan, u.Mean, elapsed, out})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].makespan < rows[j].makespan })

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "\nrank\talgorithm\tmakespan\tvs bound\tutilization\ttime")
	for i, r := range rows {
		fmt.Fprintf(w, "%d\t%s\t%d\t%+.1f%%\t%.0f%%\t%v\n",
			i+1, r.name, r.makespan,
			100*float64(r.makespan-lb)/float64(lb),
			100*r.util, r.elapsed.Round(time.Millisecond))
	}
	if err := w.Flush(); err != nil {
		return err
	}

	// Export artifacts: the winner's schedule as SVG, the job as JSON.
	svgPath := filepath.Join(*outDir, "schedule.svg")
	f, err := os.Create(svgPath)
	if err != nil {
		return err
	}
	if err := spear.WriteScheduleSVG(f, rows[0].schedule, job, 900, 14); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Close(); err != nil {
		return err
	}
	jobPath := filepath.Join(*outDir, "job.json")
	jf, err := os.Create(jobPath)
	if err != nil {
		return err
	}
	if err := spear.SaveJob(jf, job, "zoo"); err != nil {
		return errors.Join(err, jf.Close())
	}
	if err := jf.Close(); err != nil {
		return err
	}
	fmt.Printf("\nwinner (%s) schedule -> %s; job -> %s\n", rows[0].name, svgPath, jobPath)
	fmt.Printf("replay with: go run ./cmd/spear-sim -job %s -algos tetris,cp\n", jobPath)
	return nil
}
