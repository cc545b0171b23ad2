package sched_test

import (
	"math/rand"
	"testing"

	"spear/internal/baselines"
	"spear/internal/cluster"
	"spear/internal/sched"
	"spear/internal/workload"
)

// BenchmarkValidate checks the plan BenchmarkCPSchedule_m4 (baselines)
// produces, as serve does for every job: the replay is in start order, so
// each placement's fit is decided by one grid row.
func BenchmarkValidate(b *testing.B) {
	cfg := workload.DefaultTraceConfig()
	trace, err := workload.GenerateTrace(rand.New(rand.NewSource(7)), cfg)
	if err != nil {
		b.Fatal(err)
	}
	g, err := trace.Jobs[0].Graph(cfg.Dims)
	if err != nil {
		b.Fatal(err)
	}
	spec := cluster.Uniform(4, trace.Capacity)
	plan, err := baselines.NewCPScheduler().Schedule(g, spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sched.Validate(g, spec, plan); err != nil {
			b.Fatal(err)
		}
	}
}
