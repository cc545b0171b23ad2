package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"spear/internal/dag"
)

func TestJobSaveLoadRoundTrip(t *testing.T) {
	cfg := DefaultRandomDAGConfig()
	cfg.NumTasks = 25
	g, err := RandomDAG(rand.New(rand.NewSource(7)), cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := SaveJob(&buf, g, "roundtrip"); err != nil {
		t.Fatalf("SaveJob: %v", err)
	}
	back, name, err := LoadJob(&buf)
	if err != nil {
		t.Fatalf("LoadJob: %v", err)
	}
	if name != "roundtrip" {
		t.Errorf("name = %q", name)
	}
	if back.NumTasks() != g.NumTasks() || back.Dims() != g.Dims() {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", back.NumTasks(), back.Dims(), g.NumTasks(), g.Dims())
	}
	// Derived features must survive the round trip exactly.
	if back.CriticalPath() != g.CriticalPath() {
		t.Errorf("critical path %d != %d", back.CriticalPath(), g.CriticalPath())
	}
	for d := 0; d < g.Dims(); d++ {
		if back.TotalWork(d) != g.TotalWork(d) {
			t.Errorf("total work dim %d: %v != %v", d, back.TotalWork(d), g.TotalWork(d))
		}
	}
	for id := 0; id < g.NumTasks(); id++ {
		tid := back.Task(dag.TaskID(id))
		orig := g.Task(dag.TaskID(id))
		if tid.Runtime != orig.Runtime || !tid.Demand.Equal(orig.Demand) {
			t.Errorf("task %d mismatch", id)
		}
		if len(back.Succ(dag.TaskID(id))) != len(g.Succ(dag.TaskID(id))) {
			t.Errorf("task %d edge count mismatch", id)
		}
	}
}

func TestLoadJobRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"not json":      `nope`,
		"no tasks":      `{"name":"x","dims":1,"tasks":[]}`,
		"bad edge":      `{"name":"x","dims":1,"tasks":[{"name":"a","runtime":1,"demand":[1]}],"edges":[[0,5]]}`,
		"cycle":         `{"name":"x","dims":1,"tasks":[{"name":"a","runtime":1,"demand":[1]},{"name":"b","runtime":1,"demand":[1]}],"edges":[[0,1],[1,0]]}`,
		"bad runtime":   `{"name":"x","dims":1,"tasks":[{"name":"a","runtime":0,"demand":[1]}]}`,
		"demand dims":   `{"name":"x","dims":2,"tasks":[{"name":"a","runtime":1,"demand":[1]}]}`,
		"negative edge": `{"name":"x","dims":1,"tasks":[{"name":"a","runtime":1,"demand":[1]}],"edges":[[-1,0]]}`,
	}
	for label, input := range cases {
		if _, _, err := LoadJob(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}

// TestLoadChecksFormat: job documents of any known format load, and one of
// an unknown format is refused with CheckFormat's error.
func TestLoadChecksFormat(t *testing.T) {
	const job = `{"format":%d,"name":"x","dims":1,"tasks":[{"name":"a","runtime":1,"demand":[1]}]}`
	for _, tc := range []struct {
		format  int
		refused bool
	}{
		{9, true},
		{-1, true},
		{FormatMulti, false},
	} {
		_, _, err := LoadJob(strings.NewReader(fmt.Sprintf(job, tc.format)))
		want := fmt.Sprintf("unknown document format %d", tc.format)
		if tc.refused && (err == nil || !strings.Contains(err.Error(), want)) {
			t.Errorf("job format %d: err = %v, want %q", tc.format, err, want)
		}
		if !tc.refused && err != nil {
			t.Errorf("job format %d: %v", tc.format, err)
		}
	}
}

func TestHandAuthoredJobSpec(t *testing.T) {
	input := `{
	  "name": "etl",
	  "dims": 2,
	  "tasks": [
	    {"name": "extract", "runtime": 3, "demand": [100, 50]},
	    {"name": "transform", "runtime": 5, "demand": [400, 300]},
	    {"name": "load", "runtime": 2, "demand": [200, 100]}
	  ],
	  "edges": [[0, 1], [1, 2]]
	}`
	g, name, err := LoadJob(strings.NewReader(input))
	if err != nil {
		t.Fatalf("LoadJob: %v", err)
	}
	if name != "etl" || g.NumTasks() != 3 {
		t.Fatalf("name=%q tasks=%d", name, g.NumTasks())
	}
	if g.CriticalPath() != 10 {
		t.Errorf("critical path = %d, want 10", g.CriticalPath())
	}
}
