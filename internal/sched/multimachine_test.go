package sched

import (
	"errors"
	"math"
	"strings"
	"testing"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/resource"
)

// twoTaskJob builds two independent tasks with the given runtime/demand.
func twoTaskJob(t *testing.T, runtime int64, demand resource.Vector) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder(demand.Dims())
	b.AddTask("a", runtime, demand.Clone())
	b.AddTask("b", runtime, demand.Clone())
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestValidateSameMachineOverlapRejected(t *testing.T) {
	// Two demand-6 tasks overlap in time. On one 10-capacity machine that
	// exceeds capacity; spreading them across two such machines is legal.
	g := twoTaskJob(t, 5, resource.Of(6))
	spec := cluster.Uniform(2, resource.Of(10))
	overlap := &Schedule{
		Algorithm: "test",
		Placements: []Placement{
			{Task: 0, Start: 0, Machine: 0},
			{Task: 1, Start: 2, Machine: 0},
		},
		Makespan: 7,
	}
	if err := Validate(g, spec, overlap); !errors.Is(err, ErrOverCapacity) {
		t.Errorf("same-machine overlap: err = %v, want ErrOverCapacity", err)
	}

	crossMachine := &Schedule{
		Algorithm: "test",
		Placements: []Placement{
			{Task: 0, Start: 0, Machine: 0},
			{Task: 1, Start: 0, Machine: 1},
		},
		Makespan: 5,
	}
	if err := Validate(g, spec, crossMachine); err != nil {
		t.Errorf("cross-machine same interval: %v", err)
	}
}

func TestValidateRejectsUnknownMachine(t *testing.T) {
	g := twoTaskJob(t, 3, resource.Of(2))
	spec := cluster.Uniform(2, resource.Of(10))
	for _, machine := range []int{-1, 2} {
		s := &Schedule{
			Algorithm: "test",
			Placements: []Placement{
				{Task: 0, Start: 0, Machine: machine},
				{Task: 1, Start: 0, Machine: 0},
			},
			Makespan: 3,
		}
		if err := Validate(g, spec, s); !errors.Is(err, ErrBadMachine) {
			t.Errorf("machine %d: err = %v, want ErrBadMachine", machine, err)
		}
	}
}

func TestComputeUtilizationPerMachine(t *testing.T) {
	// Machine 0 runs task a (5x6 work), machine 1 runs task b (5x6 work)
	// concurrently: each machine is 60% busy per dim, and so is the
	// aggregate.
	g := twoTaskJob(t, 5, resource.Of(6))
	spec := cluster.Uniform(2, resource.Of(10))
	s := &Schedule{
		Algorithm: "test",
		Placements: []Placement{
			{Task: 0, Start: 0, Machine: 0},
			{Task: 1, Start: 0, Machine: 1},
		},
		Makespan: 5,
	}
	if err := Validate(g, spec, s); err != nil {
		t.Fatal(err)
	}
	u, err := ComputeUtilization(g, spec, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u.Mean-0.6) > 1e-12 {
		t.Errorf("aggregate mean = %v, want 0.6", u.Mean)
	}
	if len(u.PerMachine) != 2 {
		t.Fatalf("PerMachine has %d entries, want 2", len(u.PerMachine))
	}
	for i, mu := range u.PerMachine {
		if mu.Machine != spec[i].Name {
			t.Errorf("machine %d named %q, want %q", i, mu.Machine, spec[i].Name)
		}
		if mu.Tasks != 1 {
			t.Errorf("machine %d ran %d tasks, want 1", i, mu.Tasks)
		}
		if math.Abs(mu.Mean-0.6) > 1e-12 {
			t.Errorf("machine %d mean = %v, want 0.6", i, mu.Mean)
		}
	}

	// Skewed placement: both tasks on machine 0, serially. Machine 0 is 60%
	// busy over the doubled makespan, machine 1 idle, aggregate 30%.
	skew := &Schedule{
		Algorithm: "test",
		Placements: []Placement{
			{Task: 0, Start: 0, Machine: 0},
			{Task: 1, Start: 5, Machine: 0},
		},
		Makespan: 10,
	}
	u, err = ComputeUtilization(g, spec, skew)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u.Mean-0.3) > 1e-12 {
		t.Errorf("aggregate mean = %v, want 0.3", u.Mean)
	}
	if math.Abs(u.PerMachine[0].Mean-0.6) > 1e-12 || u.PerMachine[0].Tasks != 2 {
		t.Errorf("machine 0: mean = %v tasks = %d, want 0.6 and 2", u.PerMachine[0].Mean, u.PerMachine[0].Tasks)
	}
	if u.PerMachine[1].Mean != 0 || u.PerMachine[1].Tasks != 0 {
		t.Errorf("machine 1: mean = %v tasks = %d, want idle", u.PerMachine[1].Mean, u.PerMachine[1].Tasks)
	}
}

// TestGanttAnnotatesMachines checks that both renderers tag each row with
// its machine when some task runs off machine 0, and leave single-machine
// output untagged.
func TestGanttAnnotatesMachines(t *testing.T) {
	g := twoTaskJob(t, 5, resource.Of(6))
	multi := &Schedule{
		Algorithm: "test",
		Placements: []Placement{
			{Task: 0, Start: 0, Machine: 0},
			{Task: 1, Start: 0, Machine: 1},
		},
		Makespan: 5,
	}
	single := &Schedule{
		Algorithm:  "test",
		Placements: []Placement{{Task: 0, Start: 0}, {Task: 1, Start: 5}},
		Makespan:   10,
	}
	for _, r := range []struct {
		name   string
		render func(s *Schedule) string
	}{
		{"gantt", func(s *Schedule) string { return s.Gantt(g, 20) }},
		{"svg", func(s *Schedule) string {
			var b strings.Builder
			if err := s.WriteSVG(&b, g, 400, 14); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}},
	} {
		if out := r.render(multi); !strings.Contains(out, " m0") || !strings.Contains(out, " m1") {
			t.Errorf("%s: multi-machine output lacks machine tags:\n%s", r.name, out)
		}
		if out := r.render(single); strings.Contains(out, " m0") || strings.Contains(out, " m1") {
			t.Errorf("%s: single-machine output grew machine tags:\n%s", r.name, out)
		}
	}
}
