package spear_test

import (
	"testing"

	"spear"
)

// TestIntegrationTracePipeline exercises the whole system end to end
// through the public API: generate the synthetic production trace, train a
// small policy, schedule trace jobs with Spear and Graphene, validate every
// schedule and sanity-check the utilization metrics.
func TestIntegrationTracePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}

	graphs, err := spear.GenerateTrace(42)
	if err != nil {
		t.Fatal(err)
	}
	capacity := spear.TraceCapacity()

	net := trainTinyModel(t)
	spearSched, err := spear.NewSpear(net, tinyFeatures(), spear.SpearConfig{
		InitialBudget: 20, MinBudget: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	graphene := spear.NewGraphene()

	for i := 0; i < 3; i++ {
		job := graphs[i]
		for _, s := range []spear.Scheduler{spearSched, graphene} {
			out, err := s.Schedule(job, spear.SingleMachine(capacity))
			if err != nil {
				t.Fatalf("%s on job %d: %v", s.Name(), i, err)
			}
			if err := spear.Validate(job, spear.SingleMachine(capacity), out); err != nil {
				t.Fatalf("%s on job %d: %v", s.Name(), i, err)
			}
			lb, err := spear.MakespanLowerBound(job, capacity)
			if err != nil {
				t.Fatal(err)
			}
			if out.Makespan < lb {
				t.Errorf("%s on job %d: makespan %d below bound %d", s.Name(), i, out.Makespan, lb)
			}
			u, err := spear.ComputeUtilization(job, spear.SingleMachine(capacity), out)
			if err != nil {
				t.Fatal(err)
			}
			if u.Mean <= 0 || u.Mean > 1 {
				t.Errorf("%s on job %d: utilization %v out of (0, 1]", s.Name(), i, u.Mean)
			}
		}
	}
}

// TestIntegrationMotivatingGap verifies the paper's headline qualitative
// claim end to end: search-based scheduling beats every heuristic on the
// motivating example by roughly the 3T/2T ratio.
func TestIntegrationMotivatingGap(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	job, err := spear.MotivatingExample(100)
	if err != nil {
		t.Fatal(err)
	}
	capacity := spear.MotivatingCapacity()

	search := spear.NewMCTS(spear.MCTSConfig{InitialBudget: 3000, MinBudget: 300, Seed: 1})
	searchOut, err := search.Schedule(job, spear.SingleMachine(capacity))
	if err != nil {
		t.Fatal(err)
	}

	worst := int64(0)
	for _, s := range []spear.Scheduler{spear.NewGraphene(), spear.NewTetris(), spear.NewCP(), spear.NewSJF()} {
		out, err := s.Schedule(job, spear.SingleMachine(capacity))
		if err != nil {
			t.Fatal(err)
		}
		if out.Makespan > worst {
			worst = out.Makespan
		}
		if out.Makespan <= searchOut.Makespan {
			t.Errorf("%s (%d) not worse than search (%d)", s.Name(), out.Makespan, searchOut.Makespan)
		}
	}
	ratio := float64(worst) / float64(searchOut.Makespan)
	if ratio < 1.3 {
		t.Errorf("gap ratio %.2f, want ~1.5 (3T vs 2T)", ratio)
	}
}
