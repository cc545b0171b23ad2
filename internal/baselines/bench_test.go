package baselines

import (
	"math/rand"
	"testing"

	"spear/internal/cluster"
	"spear/internal/resource"
	"spear/internal/sched"
	"spear/internal/workload"
)

func BenchmarkBaselines100Tasks(b *testing.B) {
	g := randomLayeredGraph(rand.New(rand.NewSource(5)), 100)
	capacity := resource.Of(1000, 1000)
	for _, s := range []sched.Scheduler{
		NewTetrisScheduler(),
		NewSJFScheduler(),
		NewCPScheduler(),
		NewGrapheneScheduler(),
	} {
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(g, cluster.Single(capacity)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCPSchedule_m4 is what one serve planning call costs: a warm CP
// scheduler on a MapReduce-trace job (long tasks, two wide stages) and four
// machines.
func BenchmarkCPSchedule_m4(b *testing.B) {
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
	s := NewCPScheduler()
	if _, err := s.Schedule(g, spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(g, spec); err != nil {
			b.Fatal(err)
		}
	}
}
