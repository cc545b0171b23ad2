package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spear"
	"spear/internal/cluster"
	"spear/internal/profile/profiletest"
)

func TestParseCapacity(t *testing.T) {
	v, err := parseCapacity("", 2)
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 1000 || v[1] != 1000 {
		t.Errorf("default capacity = %v", v)
	}

	v, err = parseCapacity("10, 20", 2)
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 10 || v[1] != 20 {
		t.Errorf("parsed = %v", v)
	}

	if _, err := parseCapacity("10", 2); err == nil {
		t.Error("dim mismatch accepted")
	}
	if _, err := parseCapacity("x,y", 2); err == nil {
		t.Error("non-numeric accepted")
	}
}

// TestBuildSchedulerNames: every name the -algos help lists constructs a
// scheduler and has its outputs pinned in the root package's corpus, and an
// unknown name is refused with that same list.
func TestBuildSchedulerNames(t *testing.T) {
	// An untrained network of the default shape, so "spear" loads a model
	// instead of training one.
	net, err := spear.NewNetwork(spear.DefaultFeatures(), 1)
	if err != nil {
		t.Fatal(err)
	}
	model := filepath.Join(t.TempDir(), "model.gob")
	f, err := os.Create(model)
	if err != nil {
		t.Fatal(err)
	}
	if err := spear.SaveModel(f, net); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	corpus, err := os.ReadFile("../../testdata/corpus.tsv")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range algorithms {
		if !strings.Contains(string(corpus), "\nsim/"+name+"/") {
			t.Errorf("%s: no sim/%s/ row in testdata/corpus.tsv; TestOutputCorpusPinned must pin it", name, name)
		}
		s, err := buildScheduler(name, 10, 2, 1, model, nil)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if s == nil || s.Name() == "" {
			t.Errorf("%s: bad scheduler", name)
		}
	}
	_, err = buildScheduler("bogus", 10, 2, 1, model, nil)
	if err == nil {
		t.Fatal("bogus algorithm accepted")
	}
	if want := strings.Join(algorithms, " "); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not list the known names %q", err, want)
	}
}

func TestBuildJobsFromJSONFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.json")
	body := `{"name":"j","dims":1,"tasks":[{"name":"a","runtime":2,"demand":[5]},{"name":"b","runtime":3,"demand":[5]}],"edges":[[0,1]]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, capacity, err := buildJobs(false, path, "10", 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].NumTasks() != 2 {
		t.Fatalf("jobs = %v", jobs)
	}
	if capacity[0] != 10 {
		t.Errorf("capacity = %v", capacity)
	}

	if _, _, err := buildJobs(false, filepath.Join(dir, "missing.json"), "", 0, 0, 1); err == nil {
		t.Error("missing file accepted")
	}
}

func TestBuildJobsMotivatingAndRandom(t *testing.T) {
	jobs, capacity, err := buildJobs(true, "", "", 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].NumTasks() != 8 || capacity[0] != 1000 {
		t.Errorf("motivating: %d jobs, capacity %v", len(jobs), capacity)
	}

	jobs, _, err = buildJobs(false, "", "", 3, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 || jobs[0].NumTasks() != 12 {
		t.Errorf("random: %d jobs x %d tasks", len(jobs), jobs[0].NumTasks())
	}
}

// TestRunRejectsBadCounts: no random-job count, machine count or search
// budget below one and no cluster larger than a schedule action can address
// reaches a scheduler.
func TestRunRejectsBadCounts(t *testing.T) {
	for _, n := range []string{"-1", "0"} {
		var out bytes.Buffer
		if err := run([]string{"-n", n, "-algos", "cp"}, &out); err == nil || !strings.Contains(err.Error(), "must be >= 1") {
			t.Errorf("-n %s: err = %v, output %q", n, err, out.String())
		}
	}
	for _, tc := range []struct{ flag, value string }{
		{"machines", "0"},
		{"budget", "0"},
		{"budget", "-5"},
		{"min-budget", "0"},
	} {
		var out bytes.Buffer
		err := run([]string{"-n", "1", "-tasks", "5", "-algos", "mcts", "-" + tc.flag, tc.value}, &out)
		if err == nil || !strings.Contains(err.Error(), tc.flag+" "+tc.value+" must be >= 1") {
			t.Errorf("-%s %s: err = %v, output %q", tc.flag, tc.value, err, out.String())
		}
	}
	if _, _, err := buildJobs(true, "", "", 0, 0, 0); err != nil {
		t.Errorf("-motivating -n 0: %v (the count applies to random jobs only)", err)
	}
	for _, algo := range []string{"random", "cp", "tetris", "sjf", "graphene", "anneal", "mcts", "optimal"} {
		var out bytes.Buffer
		err := run([]string{"-n", "1", "-tasks", "5", "-algos", algo, "-machines", "40000"}, &out)
		if !errors.Is(err, cluster.ErrTooManyMachines) {
			t.Errorf("%s on 40000 machines: err = %v, want ErrTooManyMachines", algo, err)
		}
	}
}

func TestWriteSVGFile(t *testing.T) {
	jobs, capacity, err := buildJobs(false, "", "", 1, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := spear.NewTetris().Schedule(jobs[0], spear.SingleMachine(capacity))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.svg")
	if err := writeSVGFile(path, out, jobs[0]); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Errorf("not an SVG: %.60s", data)
	}
}

// TestGanttChartsFollowTheTable pins where -gantt prints: after the makespan
// table and before the -metrics snapshot, one chart per job and scheduler in
// job order, then -algos order, each headed by its job.
func TestGanttChartsFollowTheTable(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-n", "2", "-tasks", "4", "-algos", "cp,mcts", "-budget", "5", "-min-budget", "2", "-gantt", "-metrics"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	at := strings.Index(text, "\navg ")
	if at < 0 {
		t.Fatalf("no makespan table:\n%s", text)
	}
	for _, head := range []string{"job 0  CP ", "job 0  MCTS ", "job 1  CP ", "job 1  MCTS "} {
		next := strings.Index(text, "\n"+head)
		if next <= at || strings.Count(text, "\n"+head) != 1 {
			t.Fatalf("chart %q missing, repeated or out of order:\n%s", head, text)
		}
		at = next
	}
	if snap := strings.Index(text, "\n# HELP "); snap < at {
		t.Errorf("metrics snapshot at byte %d, before the last chart at %d:\n%s", snap, at, text)
	}
}

// TestProfileFlags: -cpuprofile and -memprofile each leave a pprof file.
func TestProfileFlags(t *testing.T) {
	profiletest.Run(t, func(args []string) error { return run(args, io.Discard) },
		"-n", "1", "-tasks", "10", "-algos", "cp")
}
