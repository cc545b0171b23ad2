package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"spear/internal/serve"
)

// TestDefaultTrafficFitsDefaultCluster runs the command with its default
// class mix, horizon and cluster: the backlog must drain within a tenth of
// the horizon after the last arrival, i.e. the defaults must not overload
// the one machine they run on.
func TestDefaultTrafficFitsDefaultCluster(t *testing.T) {
	// run() reads the process-wide flag set and argument list.
	args, flags := os.Args, flag.CommandLine
	t.Cleanup(func() { os.Args, flag.CommandLine = args, flags })
	for _, seed := range []string{"1", "7"} {
		out := filepath.Join(t.TempDir(), "run.json")
		flag.CommandLine = flag.NewFlagSet("spear-serve", flag.ContinueOnError)
		os.Args = []string{"spear-serve", "-seed", seed, "-quiet", "-out", out}
		if err := run(); err != nil {
			t.Fatalf("seed %s: %v", seed, err)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		log, err := serve.LoadRunLog(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		horizon, final := log.Config.Horizon, log.Summary.FinalClock
		if log.Summary.Completed < 20 {
			t.Errorf("seed %s: only %d jobs served", seed, log.Summary.Completed)
		}
		if float64(final) > 1.1*float64(horizon) {
			t.Errorf("seed %s: final_clock %d exceeds 1.1 x horizon %d: the default mix overloads the default cluster", seed, final, horizon)
		}
	}
}
