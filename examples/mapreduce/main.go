// MapReduce trace example (paper §V-C): generate the synthetic production
// trace, schedule a handful of its jobs with Spear (budget 100 decaying to
// 50, as in the paper's trace experiments) and Graphene, and report the
// per-job makespan reduction.
//
// Run with:
//
//	go run ./examples/mapreduce [-jobs 8]
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"spear"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mapreduce:", err)
		os.Exit(1)
	}
}

func run() error {
	jobsN := flag.Int("jobs", 8, "number of trace jobs to schedule")
	seed := flag.Int64("seed", 2019, "trace generation seed")
	flag.Parse()

	trace, err := spear.GenerateTrace(*seed, spear.DefaultTraceConfig())
	if err != nil {
		return err
	}
	s := trace.Stats()
	fmt.Printf("synthetic trace: %d jobs; median %d map / %d reduce tasks; median runtimes %d / %d\n\n",
		s.Jobs, s.MedianMaps, s.MedianReduces, s.MedianMapRT, s.MedianReduceRT)

	graphs, err := trace.Graphs()
	if err != nil {
		return err
	}
	if *jobsN > len(graphs) {
		*jobsN = len(graphs)
	}
	capacity := spear.Vector(trace.Capacity)

	net, err := loadOrTrain(*seed)
	if err != nil {
		return err
	}
	spearSched, err := spear.NewSpear(net, spear.DefaultFeatures(), spear.SpearConfig{
		InitialBudget: 100, // the paper's trace-experiment budget
		MinBudget:     50,
		Seed:          *seed,
	})
	if err != nil {
		return err
	}
	graphene := spear.NewGraphene()

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "job\tmaps\treduces\tGraphene\tSpear\treduction")
	var wins int
	for i := 0; i < *jobsN; i++ {
		job := graphs[i]
		gOut, err := graphene.Schedule(job, spear.SingleMachine(capacity))
		if err != nil {
			return err
		}
		sOut, err := spearSched.Schedule(job, spear.SingleMachine(capacity))
		if err != nil {
			return err
		}
		if err := spear.Validate(job, spear.SingleMachine(capacity), sOut); err != nil {
			return err
		}
		maps := len(job.Entries())
		reduction := float64(gOut.Makespan-sOut.Makespan) / float64(gOut.Makespan) * 100
		if sOut.Makespan <= gOut.Makespan {
			wins++
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%+.1f%%\n",
			trace.Jobs[i].Name, maps, job.NumTasks()-maps, gOut.Makespan, sOut.Makespan, reduction)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("\nSpear no worse than Graphene on %d/%d jobs\n", wins, *jobsN)
	return nil
}

// loadOrTrain prefers a model trained into models/policy.gob (the recipe is
// in models/README.md) and falls back to a quick training run.
func loadOrTrain(seed int64) (*spear.Network, error) {
	if f, err := os.Open("models/policy.gob"); err == nil {
		defer f.Close() //spear:ignoreerr(read-only file; a close error loses no data)
		net, err := spear.LoadModel(f)
		if err == nil && net.InputSize() == spear.DefaultFeatures().InputSize() {
			fmt.Println("using pre-trained models/policy.gob")
			return net, nil
		}
	}
	fmt.Println("training a policy model for Spear...")
	net, _, _, err := spear.TrainModel(spear.ModelConfig{
		TrainJobs:    8,
		TasksPerJob:  20,
		PretrainCfg:  spear.PretrainConfig{Epochs: 8},
		ReinforceCfg: spear.ReinforceConfig{Epochs: 10, Rollouts: 8},
		Seed:         seed,
	}, nil)
	return net, err
}
