package workload

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"spear/internal/baselines"
	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/resource"
	"spear/internal/sched"
)

func TestForkJoinShape(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g, err := ForkJoin(r, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Per stage: 1 fork + 4 work + 1 join = 6 tasks.
	if g.NumTasks() != 18 {
		t.Fatalf("NumTasks = %d, want 18", g.NumTasks())
	}
	if len(g.Entries()) != 1 || len(g.Exits()) != 1 {
		t.Errorf("entries %d, exits %d; want 1, 1", len(g.Entries()), len(g.Exits()))
	}
	// Depth: 3 stages x 3 levels = 9 levels.
	if g.NumLevels() != 9 {
		t.Errorf("NumLevels = %d, want 9", g.NumLevels())
	}

	if _, err := ForkJoin(r, 0, 3); err == nil {
		t.Error("zero stages accepted")
	}
}

func TestOutTreeShape(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g, err := OutTree(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 1 + 2 + 4 + 8 = 15 nodes.
	if g.NumTasks() != 15 {
		t.Fatalf("NumTasks = %d, want 15", g.NumTasks())
	}
	if len(g.Entries()) != 1 {
		t.Errorf("entries = %d, want 1 (the root)", len(g.Entries()))
	}
	if len(g.Exits()) != 8 {
		t.Errorf("exits = %d, want 8 (the leaves)", len(g.Exits()))
	}
	// Every non-root node has exactly one parent.
	for id := 1; id < g.NumTasks(); id++ {
		if len(g.Pred(dag.TaskID(id))) != 1 {
			t.Errorf("node %d has %d parents", id, len(g.Pred(dag.TaskID(id))))
		}
	}
}

func TestInTreeShape(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g, err := InTree(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 15 {
		t.Fatalf("NumTasks = %d, want 15", g.NumTasks())
	}
	if len(g.Entries()) != 8 {
		t.Errorf("entries = %d, want 8 (the leaves)", len(g.Entries()))
	}
	if len(g.Exits()) != 1 {
		t.Errorf("exits = %d, want 1 (the root)", len(g.Exits()))
	}
}

func TestGaussianEliminationShape(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	m := 5
	g, err := GaussianElimination(r, m)
	if err != nil {
		t.Fatal(err)
	}
	// Tasks: sum over k of (1 pivot + m-k-1 updates) for k in 0..m-2:
	// (m-1) pivots + m(m-1)/2 updates = 4 + 10 = 14.
	want := (m - 1) + m*(m-1)/2
	if g.NumTasks() != want {
		t.Fatalf("NumTasks = %d, want %d", g.NumTasks(), want)
	}
	// Exactly one entry: pivot0.
	if len(g.Entries()) != 1 {
		t.Errorf("entries = %d, want 1", len(g.Entries()))
	}
	// The elimination is inherently sequential in k: at least m-1 levels.
	if g.NumLevels() < m-1 {
		t.Errorf("NumLevels = %d, want >= %d", g.NumLevels(), m-1)
	}

	if _, err := GaussianElimination(r, 1); err == nil {
		t.Error("m=1 accepted")
	}
}

func TestTopologiesAllSchedulable(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	graphs := []*dag.Graph{}
	for _, build := range []func() (*dag.Graph, error){
		func() (*dag.Graph, error) { return ForkJoin(r, 2, 5) },
		func() (*dag.Graph, error) { return OutTree(r, 3, 3) },
		func() (*dag.Graph, error) { return InTree(r, 2, 4) },
		func() (*dag.Graph, error) { return GaussianElimination(r, 6) },
	} {
		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	capacity := TopologyCapacity()
	for i, g := range graphs {
		for _, s := range []sched.Scheduler{baselines.NewTetrisScheduler(), baselines.NewCPScheduler()} {
			out, err := s.Schedule(g, cluster.Single(capacity))
			if err != nil {
				t.Fatalf("graph %d %s: %v", i, s.Name(), err)
			}
			if err := sched.Validate(g, cluster.Single(capacity), out); err != nil {
				t.Errorf("graph %d %s: %v", i, s.Name(), err)
			}
		}
	}
}

// TestTopologyConfigDefaults: the generators are sized as the zero
// TopologyConfig they used to take sized them (2 dimensions, runtimes and
// demands up to 20), and draw, seed for seed, the DAGs it drew: each sum is
// the SaveJob bytes of EXPERIMENTS.md's census shape at seed 100.
func TestTopologyConfigDefaults(t *testing.T) {
	if got := TopologyCapacity(); !got.Equal(resource.Uniform(2, 20)) {
		t.Errorf("TopologyCapacity() = %v, want [20 20]", got)
	}
	for _, tc := range []struct {
		name  string
		build func(*rand.Rand) (*dag.Graph, error)
		sum   string
	}{
		{"forkjoin", func(r *rand.Rand) (*dag.Graph, error) { return ForkJoin(r, 10, 8) },
			"2ae9bbb250a3dc1dfea84b8794348f7fca58ac77b7925740735449a4b7e1a6bc"},
		{"outtree", func(r *rand.Rand) (*dag.Graph, error) { return OutTree(r, 4, 3) },
			"3798d3aedd8e9deb635134b3f791511836f727e02e8a0ffea8ec77ddf7c050a0"},
		{"intree", func(r *rand.Rand) (*dag.Graph, error) { return InTree(r, 4, 3) },
			"72f1094fa4c37ed3c0066e4e953d73e42a7a3459e224aa3dbcb86f5c82669d82"},
		{"gauss", func(r *rand.Rand) (*dag.Graph, error) { return GaussianElimination(r, 13) },
			"6d05d47b1cc89982f3f0e58ac865e7685fcd6f12f6a917a16c21635004008df1"},
	} {
		g, err := tc.build(rand.New(rand.NewSource(100)))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveJob(&buf, g, tc.name); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.sum {
			t.Errorf("%s: job sum %s, want %s", tc.name, got, tc.sum)
		}
	}
}
