// Quickstart: build a small ETL-style job through the public API, load the
// checked-in policy, schedule the job with Spear and print the resulting
// plan.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"spear"
	"spear/models"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// A little ETL pipeline: ingest fans out to three parsers with very
	// different resource shapes, which join into an aggregate and a report.
	// Demands are (CPU, memory) out of a (1000, 1000) cluster.
	b := spear.NewJobBuilder(2)
	ingest := b.AddTask("ingest", 3, spear.Resources(200, 100))
	parseA := b.AddTask("parse-logs", 8, spear.Resources(600, 200))
	parseB := b.AddTask("parse-imgs", 8, spear.Resources(300, 800))
	parseC := b.AddTask("parse-text", 5, spear.Resources(400, 300))
	agg := b.AddTask("aggregate", 6, spear.Resources(700, 500))
	report := b.AddTask("report", 2, spear.Resources(100, 100))
	b.AddDep(ingest, parseA)
	b.AddDep(ingest, parseB)
	b.AddDep(ingest, parseC)
	b.AddDep(parseA, agg)
	b.AddDep(parseB, agg)
	b.AddDep(parseC, agg)
	b.AddDep(agg, report)
	job, err := b.Build()
	if err != nil {
		return err
	}
	capacity := spear.Resources(1000, 1000)

	lb, err := spear.MakespanLowerBound(job, capacity)
	if err != nil {
		return err
	}
	fmt.Printf("job: %d tasks, critical path %d, makespan lower bound %d\n",
		job.NumTasks(), spear.CriticalPath(job), lb)

	// The checked-in policy (models/policy.gob); spear-train retrains it, and
	// models.Load also reads what spear-train writes.
	net, err := models.Load("")
	if err != nil {
		return err
	}

	scheduler, err := spear.NewSpear(net, spear.DefaultFeatures(), spear.SpearConfig{
		InitialBudget: 200,
		MinBudget:     50,
		Seed:          1,
	})
	if err != nil {
		return err
	}
	schedule, err := scheduler.Schedule(job, spear.SingleMachine(capacity))
	if err != nil {
		return err
	}
	if err := spear.Validate(job, spear.SingleMachine(capacity), schedule); err != nil {
		return fmt.Errorf("schedule failed validation: %w", err)
	}

	fmt.Printf("\nSpear makespan: %d (lower bound %d)\n\n", schedule.Makespan, lb)
	fmt.Print(spear.Gantt(schedule, job, 60))

	// Compare against the heuristics.
	fmt.Println("\nbaselines on the same job:")
	for _, s := range []spear.Scheduler{spear.NewGraphene(), spear.NewTetris(), spear.NewCP(), spear.NewSJF()} {
		out, err := s.Schedule(job, spear.SingleMachine(capacity))
		if err != nil {
			return err
		}
		fmt.Printf("  %-9s %d\n", s.Name(), out.Makespan)
	}
	return nil
}
