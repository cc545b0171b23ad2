package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spear/internal/cluster"
	"spear/internal/profile/profiletest"
	"spear/internal/serve"
)

// TestDefaultTrafficFitsDefaultCluster runs the command with its default
// class mix, horizon and cluster: the backlog must drain within a tenth of
// the horizon after the last arrival, i.e. the defaults must not overload
// the one machine they run on.
func TestDefaultTrafficFitsDefaultCluster(t *testing.T) {
	for _, seed := range []string{"1", "7"} {
		out := filepath.Join(t.TempDir(), "run.json")
		if err := run([]string{"-seed", seed, "-quiet", "-out", out}); err != nil {
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

// TestRejectsMoreMachinesThanActionsEncode: a cluster larger than a
// schedule action can address is refused at start-up, before any job is
// served.
func TestRejectsMoreMachinesThanActionsEncode(t *testing.T) {
	if err := run([]string{"-seed", "7", "-machines", "40000", "-horizon", "2000", "-quiet"}); !errors.Is(err, cluster.ErrTooManyMachines) {
		t.Fatalf("err = %v, want ErrTooManyMachines", err)
	}
}

// TestRunRejectsBadCounts: a count below one is refused with an error that
// names its flag, before any job is served; none falls back to a default.
func TestRunRejectsBadCounts(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"machines", "0"},
	} {
		err := run([]string{"-horizon", "2000", "-quiet", "-" + tc.flag, tc.value})
		if err == nil || !strings.Contains(err.Error(), tc.flag+" "+tc.value+" must be >= 1") {
			t.Errorf("-%s %s: err = %v", tc.flag, tc.value, err)
		}
	}
}

// TestBuildSchedulerNames: every name the -algo help lists constructs a
// scheduler and has a CLI run log pinned in the root package's corpus, and
// an unknown name is refused with that same list.
func TestBuildSchedulerNames(t *testing.T) {
	corpus, err := os.ReadFile("../../testdata/corpus.tsv")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range algorithms {
		if !strings.Contains(string(corpus), "\nserve/cli_"+name+"_") {
			t.Errorf("%s: no serve/cli_%s_ row in testdata/corpus.tsv; TestOutputCorpusPinned must pin it", name, name)
		}
		s, err := buildScheduler(serve.Config{Algorithm: name, Seed: 1})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if s == nil || s.Name() == "" {
			t.Errorf("%s: bad scheduler", name)
		}
	}
	_, err = buildScheduler(serve.Config{Algorithm: "bogus"})
	if err == nil {
		t.Fatal("bogus algorithm accepted")
	}
	if want := strings.Join(algorithms, " "); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not list the known names %q", err, want)
	}
}

// TestProfileFlags: -cpuprofile and -memprofile each leave a pprof file.
func TestProfileFlags(t *testing.T) {
	profiletest.Run(t, run, "-seed", "3", "-horizon", "500", "-quiet")
}
