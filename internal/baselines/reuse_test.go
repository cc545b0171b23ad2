package baselines

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/resource"
	"spear/internal/sched"
	"spear/internal/simenv"
)

// TestPolicySchedulerReuseLeaksNothing plans a shuffled run of jobs of
// different sizes on one scheduler, alternating a one-machine and a
// four-machine cluster, with a job no machine can hold in the middle: every
// plan must be the one a scheduler built for that job alone returns. Graphene
// rides along: its candidates share one OrderRunner the same way.
func TestPolicySchedulerReuseLeaksNothing(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var jobs []*dag.Graph
	for _, n := range []int{40, 5, 25, 60, 8, 33, 12, 50, 3, 45} {
		jobs = append(jobs, randomLayeredGraph(r, n))
	}
	r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	whale := buildGraph(t, 2, []taskSpec{{runtime: 4, demand: []int64{5000, 10}}}, nil)
	specs := []cluster.Spec{
		cluster.Single(resource.Of(1000, 1000)),
		cluster.Uniform(4, resource.Of(600, 600)),
	}
	plan := func(s sched.Scheduler, g *dag.Graph, spec cluster.Spec) *sched.Schedule {
		t.Helper()
		out, err := s.Schedule(g, spec)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := sched.Validate(g, spec, out); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		return out
	}
	for _, tc := range []struct {
		fresh    func() sched.Scheduler
		tooLarge error // what the whale is refused with
	}{
		{func() sched.Scheduler { return NewCPScheduler() }, simenv.ErrInfeasible},
		{func() sched.Scheduler { return NewTetrisScheduler() }, simenv.ErrInfeasible},
		{func() sched.Scheduler { return NewSJFScheduler() }, simenv.ErrInfeasible},
		{func() sched.Scheduler { return NewRandomScheduler(3) }, simenv.ErrInfeasible},
		// Graphene meets the whale in its virtual placement first.
		{func() sched.Scheduler { return NewGrapheneScheduler() }, cluster.ErrNeverFits},
	} {
		reused := tc.fresh()
		for i, g := range jobs {
			spec := specs[i%len(specs)]
			if i == len(jobs)/2 {
				if _, err := reused.Schedule(whale, spec); !errors.Is(err, tc.tooLarge) {
					t.Fatalf("%s: oversized job: %v, want %v", reused.Name(), err, tc.tooLarge)
				}
			}
			want := plan(tc.fresh(), g, spec)
			if got := plan(reused, g, spec); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, job %d (%d tasks, %d machines): reused scheduler planned %+v, a fresh one %+v",
					reused.Name(), i, g.NumTasks(), len(spec), got, want)
			}
		}
	}
}

// TestWarmPolicySchedulerAllocatesOnlyTheSchedule is the gate on the
// per-decision and per-job allocations of the packing baselines: once a
// scheduler has planned a job of this size, planning another costs the
// sched.Schedule it returns and that schedule's placements, nothing else.
func TestWarmPolicySchedulerAllocatesOnlyTheSchedule(t *testing.T) {
	g := randomLayeredGraph(rand.New(rand.NewSource(5)), 60)
	for _, machines := range []int{1, 4} {
		spec := cluster.Uniform(machines, resource.Of(1000, 1000))
		for _, s := range []*PolicyScheduler{NewCPScheduler(), NewTetrisScheduler(), NewSJFScheduler()} {
			run := func() {
				if _, err := s.Schedule(g, spec); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if allocs := testing.AllocsPerRun(20, run); allocs != 2 {
				t.Errorf("%s on %d machines: %v allocations per job, want 2 (the schedule and its placements)",
					s.Name(), machines, allocs)
			}
		}
	}
}

// TestWarmGrapheneAllocationsBounded is the gate on Graphene's eight
// candidate episodes sharing one OrderRunner: what a warm job still allocates
// is the candidate orders themselves (virtual space, partition, sort) and the
// schedules of the candidates that improved on the best so far: 290 and 278
// on this job, against 548 and 659 when each candidate built its own policy,
// episode and rollout context.
func TestWarmGrapheneAllocationsBounded(t *testing.T) {
	g := randomLayeredGraph(rand.New(rand.NewSource(5)), 60)
	for _, machines := range []int{1, 4} {
		spec := cluster.Uniform(machines, resource.Of(1000, 1000))
		s := NewGrapheneScheduler()
		run := func() {
			if _, err := s.Schedule(g, spec); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs > 300 {
			t.Errorf("Graphene on %d machines: %v allocations per warm job, want <= 300", machines, allocs)
		}
	}
}
