package simenv

import (
	"fmt"
	"math/rand"
	"testing"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/resource"
)

func benchGraph(b *testing.B, n int) *dag.Graph {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	builder := dag.NewBuilder(2)
	ids := make([]dag.TaskID, n)
	for i := 0; i < n; i++ {
		ids[i] = builder.AddTask("t", r.Int63n(15)+1, resource.Of(r.Int63n(8)+1, r.Int63n(8)+1))
	}
	for i := 1; i < n; i++ {
		for k := 0; k < r.Intn(3); k++ {
			builder.AddDep(ids[r.Intn(i)], ids[i])
		}
	}
	g, err := builder.Build()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkEnvClone(b *testing.B) {
	g := benchGraph(b, 100)
	e, err := New(g, resource.Of(20, 20), Config{})
	if err != nil {
		b.Fatal(err)
	}
	// Advance mid-episode so the clone carries real state.
	for i := 0; i < 30 && !e.Done(); i++ {
		if err := e.Step(e.LegalActions()[0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Clone()
	}
}

func BenchmarkRolloutRandom(b *testing.B) {
	g := benchGraph(b, 100)
	base, err := New(g, resource.Of(20, 20), Config{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := base.Clone()
		if _, err := NewRolloutContext(randomPolicy{}).Rollout(e, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRolloutRandomCtx(b *testing.B) {
	g := benchGraph(b, 100)
	base, err := New(g, resource.Of(20, 20), Config{})
	if err != nil {
		b.Fatal(err)
	}
	rc := NewRolloutContext(randomPolicy{})
	rng := rand.New(rand.NewSource(7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rc.RolloutFrom(base, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProcessStep times the Process action where the status scans used
// to hurt: a 100-task episode with three tasks running, advanced one slot at
// a time. When the last of the three has finished (every ten steps or so)
// the scratch episode is re-cloned from the base.
func BenchmarkProcessStep(b *testing.B) {
	g := benchGraph(b, 100)
	base, err := New(g, resource.Of(20, 20), Config{Mode: OneSlot})
	if err != nil {
		b.Fatal(err)
	}
	for base.NumRunning() < 3 {
		if err := base.Step(base.LegalActions()[0]); err != nil {
			b.Fatal(err)
		}
	}
	scratch := base.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if scratch.NumRunning() == 0 {
			scratch = base.CloneInto(scratch)
		}
		if err := scratch.Step(Process); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLegalActions times the legal-action scan of a 100-task episode
// 20 steps in, on one machine and on four of the same capacity, where the
// scan makes four times as many fit tests.
func BenchmarkLegalActions(b *testing.B) {
	for _, machines := range []int{1, 4} {
		b.Run(fmt.Sprintf("m%d", machines), func(b *testing.B) {
			g := benchGraph(b, 100)
			e, err := NewCluster(g, cluster.Uniform(machines, resource.Of(20, 20)), Config{})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 20 && !e.Done(); i++ {
				if err := e.Step(e.LegalActions()[0]); err != nil {
					b.Fatal(err)
				}
			}
			buf := e.LegalActions()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = e.LegalActionsInto(buf[:0])
			}
		})
	}
}
