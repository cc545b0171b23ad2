package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"spear/internal/baselines"
	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/resource"
	"spear/internal/sched"
	"spear/internal/stats"
	"spear/internal/workload"
)

// packServer returns a server of the given number of machines whose
// template pool is a tinyTrace.
func packServer(t testing.TB, seed int64, machines int) *Server {
	t.Helper()
	s, err := NewTiny(Config{
		Seed: seed, Horizon: 1, Machines: machines,
		Classes: []ClassConfig{{Name: "c", Arrival: workload.ArrivalConfig{Kind: workload.ArrivalPoisson, Mean: 10}}},
	}, baselines.NewCPScheduler(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Ways to fill the grid before a plan is packed onto it.
const (
	fillBehind    = iota // nothing at or after the clock: the plan fits at the clock
	fillSparse           // a few random blocks per machine
	fillDense            // as many random blocks as will go in
	fillSaturated        // every machine full up to one slot: the plan fits only at MaxBusy
	numFills
)

// occupy fills the server's grid as the mode says around a random clock,
// with the origin up to 20 slots behind it, and returns the slot from which
// a saturated grid is free (0 in the other modes).
func occupy(t *testing.T, rng *rand.Rand, s *Server, mode int) int64 {
	t.Helper()
	s.clock = rng.Int63n(100)
	var free int64
	if mode == fillSaturated {
		free = s.clock + 1 + rng.Int63n(60)
	}
	for m := 0; m < s.space.NumMachines(); m++ {
		if mode == fillSaturated {
			if err := s.space.Place(m, 0, s.spec[m].Capacity, free); err != nil {
				t.Fatal(err)
			}
			continue
		}
		blocks := [numFills]int{fillBehind: 6, fillSparse: 5, fillDense: 60}[mode]
		for b := 0; b < blocks; b++ {
			start, duration := rng.Int63n(150), 1+rng.Int63n(30)
			if mode == fillBehind && start+duration > s.clock {
				continue
			}
			demand := resource.Of(rng.Int63n(tinyCapacity+1), rng.Int63n(tinyCapacity+1))
			if err := s.space.Place(m, start, demand, duration); err != nil && !errors.Is(err, cluster.ErrDoesNotFit) {
				t.Fatal(err)
			}
		}
	}
	s.space.Advance(s.clock - rng.Int63n(min(s.clock, 20)+1))
	return free
}

// overlapPlan hand-builds a job of independent tasks that all run on one
// machine within a few slots of each other, so that they overlap: a task at
// 0, some more with small demands (together within capacity wherever they
// start), one that asks for nothing, and a pair of equal demand in which one
// starts where the other ends.
func overlapPlan(t *testing.T, rng *rand.Rand, machines int) (*dag.Graph, *sched.Schedule) {
	t.Helper()
	k := 3 + rng.Intn(5)
	share := int64(tinyCapacity / (k + 1))
	b := dag.NewBuilder(2)
	plan := &sched.Schedule{Algorithm: "hand"}
	machine := rng.Intn(machines)
	add := func(start, runtime int64, demand resource.Vector) {
		id := b.AddTask(fmt.Sprint("t", len(plan.Placements)), runtime, demand)
		plan.Placements = append(plan.Placements, sched.Placement{Task: id, Start: start, Machine: machine})
		plan.Makespan = max(plan.Makespan, start+runtime)
	}
	add(0, 1+rng.Int63n(12), resource.Of(1+rng.Int63n(share), rng.Int63n(share+1)))
	for i := 1; i < k-2; i++ {
		add(rng.Int63n(6), 1+rng.Int63n(12), resource.Of(rng.Int63n(share+1), rng.Int63n(share+1)))
	}
	add(rng.Int63n(6), 1+rng.Int63n(12), resource.Of(0, 0))
	twin, at, first := resource.Of(1+rng.Int63n(share), 1+rng.Int63n(share)), rng.Int63n(6), 1+rng.Int63n(8)
	add(at, first, twin)
	add(at+first, 1+rng.Int63n(8), twin)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, plan
}

// TestCommitMatchesSlotScan compares commit with the slot-by-slot scan it
// replaced on 1 280 seeded cases: every way of filling the grid, on one to
// four machines, against plans from CP, Tetris and SJF on the template pool
// and hand-built plans whose tasks overlap on one machine. The two must
// choose the same offset and leave the same grid behind.
func TestCommitMatchesSlotScan(t *testing.T) {
	planners := []sched.Scheduler{baselines.NewCPScheduler(), baselines.NewTetrisScheduler(), baselines.NewSJFScheduler()}
	rng := rand.New(rand.NewSource(20))
	var moved, probes int64
	const cases = 1280
	for c := 0; c < cases; c++ {
		mode, kind, machines := c%numFills, c/numFills%(len(planners)+1), 1+c/16%4
		s := packServer(t, int64(c%7), machines)
		free := occupy(t, rng, s, mode)

		var g *dag.Graph
		var plan *sched.Schedule
		if kind < len(planners) {
			g = s.templates[rng.Intn(len(s.templates))]
			var err error
			if plan, err = planners[kind].Schedule(g, s.spec); err != nil {
				t.Fatal(err)
			}
		} else {
			g, plan = overlapPlan(t, rng, machines)
		}
		if err := s.check.Validate(g, s.spec, plan); err != nil {
			t.Fatalf("case %d: the plan under test is not valid: %v", c, err)
		}

		oracle := s.space.Clone()
		want, err := scanCommit(oracle, s.clock, g, plan)
		if err != nil {
			t.Fatalf("case %d: oracle: %v", c, err)
		}
		got, err := s.commit(s.check.Segments())
		if err != nil {
			t.Fatalf("case %d: commit: %v", c, err)
		}
		if got != want {
			t.Fatalf("case %d (fill %d, plan %d, %d machines, clock %d): commit chose offset %d, the slot scan %d",
				c, mode, kind, machines, s.clock, got, want)
		}
		switch {
		case mode == fillBehind && got != s.clock:
			t.Fatalf("case %d: nothing in the way, yet offset %d is after the clock %d", c, got, s.clock)
		case mode == fillSaturated && got != free:
			t.Fatalf("case %d: machines full until %d, yet offset %d", c, free, got)
		}
		for m := 0; m < machines; m++ {
			a, b := s.space.Machine(m), oracle.Machine(m)
			if a.MaxBusy() != b.MaxBusy() {
				t.Fatalf("case %d: machine %d MaxBusy %d, the slot scan's %d", c, m, a.MaxBusy(), b.MaxBusy())
			}
			for at := a.Origin(); at < a.MaxBusy(); at++ {
				if !a.UsedAt(at).Equal(b.UsedAt(at)) {
					t.Fatalf("case %d: machine %d slot %d holds %v, the slot scan's %v", c, m, at, a.UsedAt(at), b.UsedAt(at))
				}
			}
		}
		if got > s.clock {
			moved++
		}
		p, _ := s.Metrics().Value("spear_serve_pack_probes_total")
		probes += int64(p)
	}
	// The cases are worth something only if many of them had to search.
	if moved < cases/3 {
		t.Errorf("only %d of %d cases packed after the clock", moved, cases)
	}
	t.Logf("%d of %d cases packed after the clock, %.1f probes per case", moved, cases, float64(probes)/cases)
}

// TestCommitRefusesPastMaxSpan: a plan that would end more than
// cluster.MaxSpan slots past the grid's origin is an error from commit, not
// a grid of that many rows.
func TestCommitRefusesPastMaxSpan(t *testing.T) {
	s := packServer(t, 1, 1)
	g := s.templates[0]
	plan, err := baselines.NewCPScheduler().Schedule(g, s.spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.check.Validate(g, s.spec, plan); err != nil {
		t.Fatal(err)
	}
	s.clock = cluster.MaxSpan
	if _, err := s.commit(s.check.Segments()); !errors.Is(err, cluster.ErrTooLong) {
		t.Fatalf("commit at clock MaxSpan: err = %v, want cluster.ErrTooLong", err)
	}
}

// TestPlanReleasesPoppedJobs: popping the backlog by reslicing leaves the
// array behind; the slots plan has popped must not keep their jobs reachable
// for as long as that array lives.
func TestPlanReleasesPoppedJobs(t *testing.T) {
	s := packServer(t, 3, 1)
	array := make([]*activeJob, 5, 8)
	for i := range array {
		array[i] = &activeJob{name: fmt.Sprint("j", i), graph: s.templates[i%len(s.templates)]}
	}
	s.backlog = array
	if err := s.plan(); err != nil {
		t.Fatal(err)
	}
	if len(s.backlog) != 0 || s.inflight != len(array) {
		t.Fatalf("backlog %d, in flight %d after planning %d jobs", len(s.backlog), s.inflight, len(array))
	}
	for i, job := range array[:cap(array)] {
		if job != nil {
			t.Errorf("the backlog's array still holds %s in slot %d", job.name, i)
		}
	}
}

// TestGlobalJainAllocatesNothing: the cross-tenant index is recomputed at
// every completion, over a buffer the server keeps, and it is Jain's index of
// the mean stretches of the tenants that have completed a job.
func TestGlobalJainAllocatesNothing(t *testing.T) {
	s, err := New(Config{Seed: 1, Horizon: 1, Classes: []ClassConfig{
		{Name: "a", Arrival: workload.ArrivalConfig{Kind: workload.ArrivalPoisson, Mean: 10}},
		{Name: "b", Arrival: workload.ArrivalConfig{Kind: workload.ArrivalPoisson, Mean: 10}},
		{Name: "c", Arrival: workload.ArrivalConfig{Kind: workload.ArrivalPoisson, Mean: 10}},
	}}, baselines.NewCPScheduler(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.tenants[0].stretchSum, s.tenants[0].completed = 3, 2
	s.tenants[2].stretchSum, s.tenants[2].completed = 7.5, 3
	want, err := stats.JainFairness([]float64{1.5, 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.globalJain(); got != want {
		t.Fatalf("globalJain = %v, want %v", got, want)
	}
	if allocs := testing.AllocsPerRun(20, func() { s.globalJain() }); allocs != 0 {
		t.Errorf("globalJain allocates %v times per call, want 0", allocs)
	}
}

// TestAdvanceKeepsWindowBounded steps through an overloaded one-machine run
// and a stable four-machine one. After every event the grid tracks at most
// as much behind the clock as half of what it tracks in all — the advance
// rule — and on the overloaded run, where the tracked window is the backlog,
// the grid is moved at a small share of the events, not at each.
func TestAdvanceKeepsWindowBounded(t *testing.T) {
	for _, tc := range []struct {
		name          string
		machines      int
		gold, batch   float64
		maxMovedShare float64
	}{
		{"overloaded_m1", 1, 150, 250, 0.1},
		{"stable_m4", 4, 400, 700, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{Seed: 1, Horizon: 30000, Machines: tc.machines, Classes: []ClassConfig{
				{Name: "gold", Arrival: workload.ArrivalConfig{Kind: workload.ArrivalPoisson, Mean: tc.gold}},
				{Name: "batch", Arrival: workload.ArrivalConfig{Kind: workload.ArrivalGamma, Mean: tc.batch, Shape: 0.5}},
			}}, baselines.NewCPScheduler(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for ci := range s.classes {
				s.scheduleArrival(ci, 0)
			}
			var events, moved int
			for len(s.events) > 0 {
				before := s.space.Origin()
				if err := s.step(); err != nil {
					t.Fatal(err)
				}
				origin, busy := s.space.Origin(), s.space.MaxBusy()
				if behind := s.clock - origin; behind > max(1, (busy-origin)/2) {
					t.Fatalf("event %d: clock %d is %d slots past the origin, the grid tracks %d", events, s.clock, behind, busy-origin)
				}
				events++
				if origin != before {
					moved++
				}
			}
			if s.inflight != 0 || len(s.backlog) != 0 {
				t.Fatalf("run did not drain: %d in flight, %d queued", s.inflight, len(s.backlog))
			}
			if share := float64(moved) / float64(events); share > tc.maxMovedShare {
				t.Errorf("the grid was moved at %d of %d events (%.2f), want at most %.2f", moved, events, share, tc.maxMovedShare)
			}
			t.Logf("%d events, grid moved at %d", events, moved)
		})
	}
}
