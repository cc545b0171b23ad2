package dag

import (
	"fmt"
	"math/rand"
	"testing"

	"spear/internal/resource"
)

// BenchmarkBuildWithFeatures measures graph construction including the
// b-level/b-load feature sweep on a 100-task layered DAG.
func BenchmarkBuildWithFeatures(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	type edge struct{ from, to int }
	type spec struct {
		runtime int64
		demand  resource.Vector
	}
	specs := make([]spec, 100)
	var edges []edge
	for i := range specs {
		specs[i] = spec{runtime: r.Int63n(20) + 1, demand: resource.Of(r.Int63n(20)+1, r.Int63n(20)+1)}
		if i > 0 {
			for k := 0; k < 1+r.Intn(3); k++ {
				edges = append(edges, edge{from: r.Intn(i), to: i})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder := NewBuilder(2)
		ids := make([]TaskID, len(specs))
		for j, s := range specs {
			ids[j] = builder.AddTask("t", s.runtime, s.demand)
		}
		for _, e := range edges {
			builder.AddDep(ids[e.from], ids[e.to])
		}
		if _, err := builder.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildWide builds the widest job shape a trace may hold, one map
// feeding every reduce, and reports ns/task. The duplicate-edge check is
// O(1) per edge and the ready set O(log n) per task, so an eightfold width
// must not make a task eightfold dearer, as the scans it replaced did.
func BenchmarkBuildWide(b *testing.B) {
	for _, reduces := range []int{4095, 32767} {
		b.Run(fmt.Sprintf("1+%d", reduces), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				builder := NewBuilder(2)
				m := builder.AddTask("map", 3, resource.Of(1, 1))
				for r := 0; r < reduces; r++ {
					builder.AddDep(m, builder.AddTask("reduce", 2, resource.Of(1, 1)))
				}
				if _, err := builder.Build(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(1+reduces)), "ns/task")
		})
	}
}
