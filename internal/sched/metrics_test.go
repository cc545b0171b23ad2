package sched

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/resource"
)

func TestComputeUtilization(t *testing.T) {
	// Two parallel tasks exactly filling a (2)-capacity cluster for 4
	// ticks: utilization 1.0, no idle slots.
	b := dag.NewBuilder(1)
	b.AddTask("x", 4, resource.Of(1))
	b.AddTask("y", 4, resource.Of(1))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := &Schedule{
		Placements: []Placement{{Task: 0, Start: 0}, {Task: 1, Start: 0}},
		Makespan:   4,
	}
	capacity := resource.Of(2)
	if err := Validate(g, cluster.Single(capacity), s); err != nil {
		t.Fatal(err)
	}
	u, err := ComputeUtilization(g, cluster.Single(capacity), s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u.PerDim[0]-1) > 1e-12 || math.Abs(u.Mean-1) > 1e-12 {
		t.Errorf("utilization = %+v, want 1.0", u)
	}
	if u.IdleSlots != 0 {
		t.Errorf("IdleSlots = %d", u.IdleSlots)
	}
}

func TestComputeUtilizationHalf(t *testing.T) {
	// One task using half the capacity for the whole makespan.
	b := dag.NewBuilder(2)
	b.AddTask("x", 5, resource.Of(5, 10))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := &Schedule{Placements: []Placement{{Task: 0, Start: 0}}, Makespan: 5}
	u, err := ComputeUtilization(g, cluster.Single(resource.Of(10, 10)), s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u.PerDim[0]-0.5) > 1e-12 || math.Abs(u.PerDim[1]-1.0) > 1e-12 {
		t.Errorf("PerDim = %v", u.PerDim)
	}
	if math.Abs(u.Mean-0.75) > 1e-12 {
		t.Errorf("Mean = %v", u.Mean)
	}
}

func TestComputeUtilizationErrors(t *testing.T) {
	g := twoTaskChain(t)
	one := cluster.Single(resource.Of(5))
	for _, tc := range []struct {
		name string
		spec cluster.Spec
		s    *Schedule
		want error
	}{
		{"nil schedule", one, nil, ErrNilSchedule},
		{"dim mismatch", cluster.Single(resource.Of(5, 5)),
			&Schedule{Placements: []Placement{{Task: 0, Start: 0}, {Task: 1, Start: 3}}, Makespan: 5}, ErrOverCapacity},
		{"task placed twice", one,
			&Schedule{Placements: []Placement{{Task: 0, Start: 0}, {Task: 0, Start: 3}, {Task: 1, Start: 3}}, Makespan: 5}, ErrDuplicateTask},
		{"over capacity", cluster.Single(resource.Of(1)),
			&Schedule{Placements: []Placement{{Task: 0, Start: 0}, {Task: 1, Start: 3}}, Makespan: 5}, ErrOverCapacity},
		{"machine outside the spec", one,
			&Schedule{Placements: []Placement{{Task: 0, Start: 0}, {Task: 1, Start: 3, Machine: 1}}, Makespan: 5}, ErrBadMachine},
	} {
		if u, err := ComputeUtilization(g, tc.spec, tc.s); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v (utilization %+v), want %v", tc.name, err, u, tc.want)
		}
	}
}

func TestComputeUtilizationIdleGaps(t *testing.T) {
	// a at [0,3), b at [5,7): slots 3 and 4 are fully idle. (Not a
	// Validate-tight schedule — utilization is also used on hand-edited
	// schedules.)
	g := twoTaskChain(t)
	s := &Schedule{Placements: []Placement{{Task: 0, Start: 0}, {Task: 1, Start: 5}}, Makespan: 7}
	u, err := ComputeUtilization(g, cluster.Single(resource.Of(5)), s)
	if err != nil {
		t.Fatal(err)
	}
	if u.IdleSlots != 2 {
		t.Errorf("IdleSlots = %d, want 2", u.IdleSlots)
	}
}

func TestComputeUtilizationCorruptMakespanNoOOM(t *testing.T) {
	// Regression: the idle-slot sweep used to allocate a []bool of length
	// Makespan, so a corrupt multi-billion makespan in an untrusted
	// JSON-loaded schedule would OOM the process. Validation now refuses
	// the makespan before any sweep.
	g := twoTaskChain(t)
	crafted := `{
		"algorithm": "corrupt",
		"placements": [{"task": 0, "start": 0}, {"task": 1, "start": 3}],
		"makespan": 4000000000000
	}`
	var s Schedule
	if err := json.Unmarshal([]byte(crafted), &s); err != nil {
		t.Fatal(err)
	}
	if _, err := ComputeUtilization(g, cluster.Single(resource.Of(5)), &s); !errors.Is(err, ErrWrongMakespan) {
		t.Fatalf("err = %v, want ErrWrongMakespan", err)
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	_, s := validChain(t)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"algorithm"`, `"placements"`, `"makespan"`, `"task"`, `"start"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("JSON missing %s: %s", key, data)
		}
	}
	if strings.Contains(string(data), `"machine"`) {
		t.Errorf("single-machine JSON carries machine keys: %s", data)
	}
	var back Schedule
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Makespan != s.Makespan || len(back.Placements) != len(s.Placements) || back.Algorithm != s.Algorithm {
		t.Errorf("round trip mismatch: %+v", back)
	}
}
