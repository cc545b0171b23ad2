// Training example (paper §IV, Fig. 8b): run the two-phase training
// pipeline — supervised warm start imitating the critical-path heuristic,
// then REINFORCE with an averaged-rollout baseline — and print the learning
// curve next to the Tetris and SJF reference makespans.
//
// Run with:
//
//	go run ./examples/training [-epochs 40]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"spear"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "training:", err)
		os.Exit(1)
	}
}

func run() error {
	epochs := flag.Int("epochs", 30, "REINFORCE epochs")
	trainJobs := flag.Int("train-jobs", 12, "training examples (paper: 144)")
	tasks := flag.Int("tasks", 25, "tasks per example (paper: 25)")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	// Reference heuristics on the training distribution.
	cfg := spear.DefaultRandomJobConfig()
	cfg.NumTasks = *tasks
	jobs, err := spear.RandomJobs(*seed, cfg, *trainJobs)
	if err != nil {
		return err
	}
	refTetris, refSJF := 0.0, 0.0
	for _, job := range jobs {
		t, err := spear.NewTetris().Schedule(job, spear.SingleMachine(cfg.Capacity()))
		if err != nil {
			return err
		}
		s, err := spear.NewSJF().Schedule(job, spear.SingleMachine(cfg.Capacity()))
		if err != nil {
			return err
		}
		refTetris += float64(t.Makespan)
		refSJF += float64(s.Makespan)
	}
	refTetris /= float64(len(jobs))
	refSJF /= float64(len(jobs))
	fmt.Printf("references on the training distribution: Tetris %.1f, SJF %.1f\n\n", refTetris, refSJF)

	// Train, printing a tiny live chart of the mean makespan.
	var first, best float64
	_, curve, _, err := spear.TrainModel(spear.ModelConfig{
		TrainJobs:    *trainJobs,
		TasksPerJob:  *tasks,
		PretrainCfg:  spear.PretrainConfig{Epochs: 10},
		ReinforceCfg: spear.ReinforceConfig{Epochs: *epochs, Rollouts: 10},
		Seed:         *seed,
	}, func(st spear.EpochStats) {
		if first == 0 { // zero is the un-set sentinel, not a measurement
			first, best = st.MeanMakespan, st.MeanMakespan
		}
		if st.MeanMakespan < best {
			best = st.MeanMakespan
		}
		bar := int(st.MeanMakespan / first * 50)
		if bar > 60 {
			bar = 60
		}
		marker := " "
		if st.MeanMakespan <= refTetris && st.MeanMakespan <= refSJF {
			marker = "*" // below both references, the paper's crossover
		}
		fmt.Printf("epoch %3d %s%s %7.1f %s\n", st.Epoch, strings.Repeat("#", bar), strings.Repeat(" ", 51-bar), st.MeanMakespan, marker)
	})
	if err != nil {
		return err
	}

	last := curve[len(curve)-1]
	fmt.Printf("\nmean makespan: %.1f -> %.1f (best %.1f) over %d epochs\n", first, last.MeanMakespan, best, len(curve))
	fmt.Println("epochs marked * are at or below both heuristic references (Fig. 8b's crossover)")
	return nil
}
