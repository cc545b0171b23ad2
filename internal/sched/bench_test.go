package sched_test

import (
	"math/rand"
	"testing"

	"spear/internal/baselines"
	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/sched"
	"spear/internal/workload"
)

// BenchmarkValidate checks the plan BenchmarkCPSchedule_m4 (baselines)
// produces: fresh is the package-level Validate, warm a Validator reused from
// call to call, as serve checks every job.
func BenchmarkValidate(b *testing.B) {
	trace, err := workload.GenerateTrace(rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	g := trace[0]
	spec := cluster.Uniform(4, workload.TraceCapacity())
	plan, err := baselines.NewCPScheduler().Schedule(g, spec)
	if err != nil {
		b.Fatal(err)
	}
	var v sched.Validator
	for _, bc := range []struct {
		name     string
		validate func(*dag.Graph, cluster.Spec, *sched.Schedule) error
	}{{"fresh", sched.Validate}, {"warm", v.Validate}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.validate(g, spec, plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestWarmValidatorAllocatesNothing: once a Validator has checked a plan,
// checking it again — a 100-task random DAG on four machines, scheduled by
// CP — allocates nothing.
func TestWarmValidatorAllocatesNothing(t *testing.T) {
	cfg := workload.DefaultRandomDAGConfig()
	g, err := workload.RandomDAG(rand.New(rand.NewSource(7)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := cluster.Uniform(4, cfg.Capacity())
	plan, err := baselines.NewCPScheduler().Schedule(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	var v sched.Validator
	if err := v.Validate(g, spec, plan); err != nil {
		t.Fatal(err)
	}
	if len(plan.Placements) != 100 || len(v.Segments()) == 0 {
		t.Fatalf("%d placements, %d segments: not the plan this test is about", len(plan.Placements), len(v.Segments()))
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := v.Validate(g, spec, plan); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a warm Validate allocates %v times per call, want 0", allocs)
	}
}
