package listsched

import (
	"errors"
	"math/rand"
	"testing"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/resource"
	"spear/internal/sched"
	"spear/internal/workload"
)

func twoMachines() cluster.Spec {
	return cluster.Uniform(2, resource.Of(10))
}

func TestPlanRespectsMachineBoundaries(t *testing.T) {
	// Two independent demand-6 tasks on two 10-capacity machines: neither
	// pair fits one machine, so they must go to different machines and run
	// concurrently.
	b := dag.NewBuilder(1)
	b.AddTask("x", 5, resource.Of(6))
	b.AddTask("y", 5, resource.Of(6))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	spec := twoMachines()
	out, err := NewHEFT().Schedule(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Placements[0].Machine == out.Placements[1].Machine {
		t.Errorf("both tasks on machine %d", out.Placements[0].Machine)
	}
	if out.Makespan != 5 {
		t.Errorf("makespan = %d, want 5", out.Makespan)
	}
	if out.Format != sched.FormatMulti {
		t.Errorf("format = %d, want %d", out.Format, sched.FormatMulti)
	}
	if err := sched.Validate(g, spec, out); err != nil {
		t.Error(err)
	}
}

func TestFragmentationCost(t *testing.T) {
	// A demand-12 task fits the aggregate 20 but no single 10-machine.
	b := dag.NewBuilder(1)
	b.AddTask("fat", 3, resource.Of(12))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHEFT().Schedule(g, twoMachines()); !errors.Is(err, cluster.ErrNeverFits) {
		t.Errorf("err = %v, want ErrNeverFits", err)
	}
	// The aggregate-model HEFT happily schedules it.
	if _, err := NewHEFT().Schedule(g, cluster.Single(resource.Of(20))); err != nil {
		t.Errorf("aggregate HEFT: %v", err)
	}
}

func TestMachinePlansAlwaysAggregateValid(t *testing.T) {
	// Machine-feasible plans are aggregate-feasible by construction; check
	// on random workloads, and confirm the machine model is never much
	// *better* than the aggregate model (fragmentation only hurts).
	cfg := workload.DefaultRandomDAGConfig()
	cfg.NumTasks = 40
	cfg.MaxDemand = 10
	spec := cluster.Uniform(2, resource.Of(10, 10))
	aggregate := cluster.Single(spec.Total())
	for seed := int64(0); seed < 4; seed++ {
		g, err := workload.RandomDAG(rand.New(rand.NewSource(seed)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := NewHEFT().Schedule(g, spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Validate against the machine spec, then as an aggregate plan with
		// the machine indices stripped.
		if err := sched.Validate(g, spec, out); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		flat := *out
		flat.Format = 0
		flat.Placements = make([]sched.Placement, len(out.Placements))
		for i, p := range out.Placements {
			flat.Placements[i] = sched.Placement{Task: p.Task, Start: p.Start}
		}
		if err := sched.Validate(g, aggregate, &flat); err != nil {
			t.Errorf("seed %d: aggregate validity: %v", seed, err)
		}
		agg, err := NewHEFT().Schedule(g, aggregate)
		if err != nil {
			t.Fatal(err)
		}
		if out.Makespan < agg.Makespan {
			// Not a strict impossibility (tie-breaking differs), but a
			// machine plan is also a valid aggregate plan, so a large gap
			// the wrong way means a bug.
			if float64(agg.Makespan-out.Makespan) > 0.05*float64(agg.Makespan) {
				t.Errorf("seed %d: machine plan %d much better than aggregate %d", seed, out.Makespan, agg.Makespan)
			}
		}
	}
}
