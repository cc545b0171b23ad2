// Command spear-experiments regenerates the tables and figures of the
// paper's evaluation section (§V). Each experiment prints the same
// rows/series the paper reports; see DESIGN.md for the experiment index.
//
// Usage:
//
//	spear-experiments -list
//	spear-experiments -run fig6a
//	spear-experiments -run all -full -model model.gob
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"spear"
	"spear/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spear-experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		runName   = flag.String("run", "all", "experiment to run (or 'all')")
		list      = flag.Bool("list", false, "list experiments and exit")
		full      = flag.Bool("full", false, "use paper-scale parameters (slow)")
		seed      = flag.Int64("seed", 1, "random seed")
		modelPath = flag.String("model", "", "trained model (trains one on demand when empty)")
		verbose   = flag.Bool("v", false, "log per-job progress")
		csvDir    = flag.String("csv-dir", "", "also write each experiment's raw data as CSV into this directory")
		metrics   = flag.Bool("metrics", false, "print a Prometheus-format metrics snapshot after the run")
	)
	flag.Parse()

	if *list {
		for _, r := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", r.Name, r.Description)
		}
		return nil
	}

	suite := experiments.NewSuite(*seed)
	suite.Full = *full
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
