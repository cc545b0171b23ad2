// Command spear-experiments regenerates the tables and figures of the
// paper's evaluation section (§V). Each experiment prints the same
// rows/series the paper reports; see DESIGN.md for the experiment index.
//
// Every experiment runs at the paper's parameters. Without -model the
// policy is trained first at §V-B3's settings (144 jobs x 20 rollouts x 300
// epochs, about 2 minutes on two cores); fig8b needs that training run, as
// it reports its learning curve, and fails on a loaded model.
//
// Usage:
//
//	spear-experiments -list
//	spear-experiments -run fig7a -csv-dir out
//	spear-experiments -run fig6a -model model.gob
//	spear-experiments -run all -csv-dir out
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"spear"
	"spear/internal/experiments"
	"spear/internal/profile"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spear-experiments:", err)
		os.Exit(1)
	}
}

// run parses the command line args, then lists the experiments or runs the
// chosen ones, and prints the -metrics snapshot.
func run(args []string) (err error) {
	fs := flag.NewFlagSet("spear-experiments", flag.ExitOnError)
	var (
		runName   = fs.String("run", "all", "experiment to run (or 'all')")
		list      = fs.Bool("list", false, "list experiments and exit")
		seed      = fs.Int64("seed", 1, "random seed")
		modelPath = fs.String("model", "", "trained model (trains one on demand when empty)")
		verbose   = fs.Bool("v", false, "log per-job progress")
		csvDir    = fs.String("csv-dir", "", "also write each experiment's raw data as CSV into this directory")
		metrics   = fs.Bool("metrics", false, "print a Prometheus-format metrics snapshot after the run")
	)
	prof := profile.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop(&err)

	if *list {
		for _, r := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", r.Name, r.Description)
		}
		return nil
	}

	suite := experiments.NewSuite(*seed)
	if *verbose {
		suite.Log = os.Stderr
	}
	if *metrics {
		// Every scheduler the suite builds registers into this registry,
		// whose snapshot is printed below.
		suite.Obs = spear.NewMetricsRegistry()
	}
	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			return err
		}
		net, err := spear.LoadModel(f)
		f.Close() //spear:ignoreerr(read-only close after a completed load)
		if err != nil {
			return err
		}
		feat := spear.DefaultFeatures()
		if net.InputSize() != feat.InputSize() {
			return fmt.Errorf("model %s does not match the default featurization", *modelPath)
		}
		suite.Net = net
	}

	names := experiments.Names()
	if *runName != "all" {
		names = []string{*runName}
	}
	var opt experiments.RunOptions
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		opt.CSV = func(name string) (io.WriteCloser, error) {
			return os.Create(filepath.Join(*csvDir, name+".csv"))
		}
	}
	// One path for one experiment or all of them: a failing experiment is
	// reported here, after the others have run.
	if err := suite.Run(names, opt, os.Stdout); err != nil {
		return err
	}
	if *metrics {
		fmt.Println("==== metrics ====")
		return suite.Obs.Snapshot().WritePrometheus(os.Stdout)
	}
	return nil
}
