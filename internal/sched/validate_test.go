package sched

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/resource"
)

// replayValidate is how Validate checked a schedule before it swept the
// placements' edges: the same structural checks, then every task placed, in
// start order, into a fresh grid. It survives only here, as the oracle the
// sweep is compared with. It bounds starts at both ends as Validate now does:
// the grid took a task whose end wrapped past MaxInt64 without complaint.
func replayValidate(g *dag.Graph, spec cluster.Spec, s *Schedule) error {
	if s == nil {
		return ErrNilSchedule
	}
	n := g.NumTasks()
	start := make([]int64, n)
	machine := make([]int, n)
	seen := make([]bool, n)
	for _, p := range s.Placements {
		if int(p.Task) < 0 || int(p.Task) >= n {
			return fmt.Errorf("%w: id %d out of range", ErrMissingTask, p.Task)
		}
		if seen[p.Task] {
			return fmt.Errorf("%w: task %d", ErrDuplicateTask, p.Task)
		}
		seen[p.Task] = true
		if p.Start < 0 || p.Start > math.MaxInt64-g.Task(p.Task).Runtime {
			return fmt.Errorf("%w: task %d at %d", ErrNegativeStart, p.Task, p.Start)
		}
		if p.Machine < 0 || p.Machine >= len(spec) {
			return fmt.Errorf("%w: task %d on machine %d of %d", ErrBadMachine, p.Task, p.Machine, len(spec))
		}
		start[p.Task] = p.Start
		machine[p.Task] = p.Machine
	}
	for id := 0; id < n; id++ {
		if !seen[id] {
			return fmt.Errorf("%w: task %d", ErrMissingTask, id)
		}
	}
	var makespan int64
	for id := 0; id < n; id++ {
		finish := start[id] + g.Task(dag.TaskID(id)).Runtime
		if finish > makespan {
			makespan = finish
		}
		for _, parent := range g.Pred(dag.TaskID(id)) {
			parentFinish := start[parent] + g.Task(parent).Runtime
			if start[id] < parentFinish {
				return fmt.Errorf("%w: task %d starts at %d, parent %d finishes at %d",
					ErrDependencyOrder, id, start[id], parent, parentFinish)
			}
		}
	}
	if s.Makespan != makespan {
		return fmt.Errorf("%w: recorded %d, actual %d", ErrWrongMakespan, s.Makespan, makespan)
	}
	space, err := cluster.NewMulti(spec)
	if err != nil {
		return err
	}
	order := make([]dag.TaskID, n)
	for i := range order {
		order[i] = dag.TaskID(i)
	}
	sort.Slice(order, func(i, j int) bool { return start[order[i]] < start[order[j]] })
	for _, id := range order {
		task := g.Task(id)
		if err := space.Place(machine[id], start[id], task.Demand, task.Runtime); err != nil {
			return fmt.Errorf("%w: task %d at %d: %v", ErrOverCapacity, id, start[id], err)
		}
	}
	return nil
}

// Defects randomCase can build into a schedule or its spec.
const (
	defectNone = iota
	defectNil
	defectMissing
	defectDuplicate
	defectUnknownTask
	defectNegativeStart
	defectFarStart
	defectBadMachine
	defectDependency
	defectMakespan
	defectEmptySpec
	defectMixedDims
	defectDimsMismatch
	defectZeroCapacity
	defectDuplicateName
	defectTaskOverCapacity
	numDefects
)

// randomCase builds a job of 1–12 tasks with 1–3 resource dimensions, a spec
// of 1–4 machines of different capacities, and a schedule for it, then builds
// the defect in. Half the schedules are packed by earliest start, so they are
// valid but for the defect and full of tasks that begin where others end; the
// other half start each task a few slots after its parents on any machine,
// and overlap as they like.
func randomCase(rng *rand.Rand, defect int) (*dag.Graph, cluster.Spec, *Schedule) {
	dims, machines, n := 1+rng.Intn(3), 1+rng.Intn(4), 1+rng.Intn(12)
	spec := make(cluster.Spec, machines)
	for m := range spec {
		capacity := resource.New(dims)
		for d := range capacity {
			capacity[d] = 1 + rng.Int63n(8)
		}
		spec[m] = cluster.Machine{Name: fmt.Sprint("m", m), Capacity: capacity}
	}
	packed := rng.Intn(2) == 0
	over := -1
	if defect == defectTaskOverCapacity {
		over = rng.Intn(n)
	}

	b := dag.NewBuilder(dims)
	on := make([]int, n)
	for i := range on {
		on[i] = rng.Intn(machines)
		demand := resource.New(dims)
		for d := range demand {
			demand[d] = rng.Int63n(spec[on[i]].Capacity[d] + 1)
		}
		if i == over {
			demand[rng.Intn(dims)] = spec[on[i]].Capacity[rng.Intn(dims)] + 9
		}
		id := b.AddTask(fmt.Sprint("t", i), 1+rng.Int63n(5), demand)
		for k := rng.Intn(3); k > 0 && i > 0; k-- {
			b.AddDep(dag.TaskID(rng.Intn(i)), id)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}

	space, err := cluster.NewMulti(spec)
	if err != nil {
		panic(err)
	}
	s := &Schedule{Algorithm: "random"}
	finish := make([]int64, n)
	for i := 0; i < n; i++ {
		task := g.Task(dag.TaskID(i))
		var ready int64
		for _, p := range g.Pred(dag.TaskID(i)) {
			ready = max(ready, finish[p])
		}
		at := ready + rng.Int63n(4)
		if packed && i != over {
			if at, err = space.EarliestStart(on[i], ready+rng.Int63n(2), task.Demand, task.Runtime); err != nil {
				panic(err)
			}
			if err := space.Place(on[i], at, task.Demand, task.Runtime); err != nil {
				panic(err)
			}
		}
		finish[i] = at + task.Runtime
		s.Placements = append(s.Placements, Placement{Task: dag.TaskID(i), Start: at, Machine: on[i]})
		s.Makespan = max(s.Makespan, finish[i])
	}
	rng.Shuffle(n, func(i, j int) { s.Placements[i], s.Placements[j] = s.Placements[j], s.Placements[i] })

	p := &s.Placements[rng.Intn(n)]
	switch defect {
	case defectNil:
		s = nil
	case defectMissing:
		s.Placements = s.Placements[:n-1]
	case defectDuplicate:
		s.Placements = append(s.Placements, *p)
	case defectUnknownTask:
		p.Task = dag.TaskID([]int{-1, n, n + 5}[rng.Intn(3)])
	case defectNegativeStart:
		p.Start = -1 - rng.Int63n(3)
	case defectFarStart: // its end would wrap round to a negative time
		p.Start = math.MaxInt64 - rng.Int63n(g.Task(p.Task).Runtime)
	case defectBadMachine:
		p.Machine = []int{-1, machines}[rng.Intn(2)]
	case defectDependency:
		for i := range s.Placements {
			q := &s.Placements[i]
			if parents := g.Pred(q.Task); len(parents) > 0 {
				q.Start = max(0, finish[parents[0]]-1-rng.Int63n(3))
				break
			}
		}
	case defectMakespan:
		s.Makespan += []int64{-1, 1}[rng.Intn(2)]
	case defectEmptySpec:
		spec = cluster.Spec{}
	case defectMixedDims:
		spec[rng.Intn(machines)].Capacity = resource.Uniform(dims+1, 9)
	case defectDimsMismatch:
		other := dims + 1
		if dims > 1 && rng.Intn(2) == 0 {
			other = dims - 1
		}
		for m := range spec {
			spec[m].Capacity = resource.Uniform(other, 9)
		}
	case defectZeroCapacity:
		spec[rng.Intn(machines)].Capacity[rng.Intn(dims)] = 0
	case defectDuplicateName:
		spec[machines-1].Name = spec[0].Name
	}
	return g, spec, s
}

// sentinels are the errors a Validate result is classified by.
var sentinels = []error{
	ErrNilSchedule, ErrMissingTask, ErrDuplicateTask, ErrNegativeStart, ErrBadMachine,
	ErrDependencyOrder, ErrOverCapacity, ErrWrongMakespan,
	cluster.ErrEmptySpec, cluster.ErrMixedDims, cluster.ErrBadCapacity, cluster.ErrDuplicateID,
	resource.ErrDimensionMismatch,
}

// sameVerdict reports how got and want differ in nil-ness or in any sentinel
// they wrap, "" if they agree.
func sameVerdict(got, want error) string {
	if (got == nil) != (want == nil) {
		return fmt.Sprintf("sweep says %v, replay says %v", got, want)
	}
	for _, s := range sentinels {
		if errors.Is(got, s) != errors.Is(want, s) {
			return fmt.Sprintf("sweep says %v, replay says %v: they disagree on %q", got, want, s)
		}
	}
	return ""
}

// profileBySlots checks segs against the profile computed slot by slot: on
// every machine and slot, the segment covering it (if any) holds the sum of
// the demands of the tasks that run there, a slot no segment covers holds
// none, and no two segments that touch hold the same demand.
func profileBySlots(g *dag.Graph, spec cluster.Spec, s *Schedule, segs []Segment) error {
	for i := 1; i < len(segs); i++ {
		a, b := segs[i-1], segs[i]
		if a.Machine > b.Machine || a.Machine == b.Machine && a.End > b.Start {
			return fmt.Errorf("segments %d %+v and %d %+v out of order", i-1, a, i, b)
		}
		if a.Machine == b.Machine && a.End == b.Start && a.Demand.Equal(b.Demand) {
			return fmt.Errorf("segments %d %+v and %d %+v should be one", i-1, a, i, b)
		}
	}
	for m := range spec {
		for t := int64(0); t < s.Makespan; t++ {
			want := resource.New(spec.Dims())
			for _, p := range s.Placements {
				if task := g.Task(p.Task); p.Machine == m && p.Start <= t && t < p.Start+task.Runtime {
					for d, need := range task.Demand {
						want[d] += need
					}
				}
			}
			got := resource.New(spec.Dims())
			for _, seg := range segs {
				if seg.Machine == m && seg.Start <= t && t < seg.End {
					if seg.Start == seg.End || seg.Demand.IsZero() {
						return fmt.Errorf("segment %+v is empty", seg)
					}
					got = seg.Demand
				}
			}
			if !got.Equal(want) {
				return fmt.Errorf("machine %d slot %d: the segments hold %v, the tasks %v", m, t, got, want)
			}
		}
	}
	return nil
}

// TestValidateMatchesReplay compares the sweep with the grid replay it
// replaced on 6 000 seeded cases, every defect of randomCase on packed and
// freely overlapping schedules, through one warm Validator: the two must
// agree on whether a schedule is valid and on every sentinel, and an accepted
// schedule's segments must be its profile.
func TestValidateMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var v Validator
	outcomes := map[string]int{}
	for c := 0; c < 6000; c++ {
		defect := c % numDefects
		g, spec, s := randomCase(rng, defect)
		got, want := v.Validate(g, spec, s), replayValidate(g, spec, s)
		if diff := sameVerdict(got, want); diff != "" {
			t.Fatalf("case %d (defect %d): %s\nspec %v\nschedule %+v", c, defect, diff, spec, s)
		}
		if fresh := Validate(g, spec, s); fmt.Sprint(fresh) != fmt.Sprint(got) {
			t.Fatalf("case %d: a fresh Validate says %v, the warm Validator %v", c, fresh, got)
		}
		if got == nil {
			if err := profileBySlots(g, spec, s, v.Segments()); err != nil {
				t.Fatalf("case %d: %v", c, err)
			}
		}
		outcome := "valid"
		for _, s := range sentinels {
			if errors.Is(got, s) {
				outcome = s.Error()
			}
		}
		outcomes[outcome]++
	}
	// Every sentinel must come up but two: a job has a task, so a schedule
	// for an empty spec names a machine it lacks, and Validate reports a
	// dimension mismatch as over capacity. Valid and over-capacity schedules
	// must come up often.
	for _, s := range sentinels {
		if outcomes[s.Error()] == 0 && s != cluster.ErrEmptySpec && s != resource.ErrDimensionMismatch {
			t.Errorf("no case was rejected with %q", s)
		}
	}
	if outcomes["valid"] < 300 || outcomes[ErrOverCapacity.Error()] < 300 {
		t.Errorf("too few valid or over-capacity cases: %v", outcomes)
	}
	t.Logf("outcomes: %v", outcomes)
}

// FuzzValidate drives the same comparison from fuzzed seeds and defects.
func FuzzValidate(f *testing.F) {
	for defect := 0; defect < numDefects; defect++ {
		f.Add(int64(defect), uint8(defect))
	}
	var v Validator
	f.Fuzz(func(t *testing.T, seed int64, defect uint8) {
		g, spec, s := randomCase(rand.New(rand.NewSource(seed)), int(defect)%numDefects)
		got, want := v.Validate(g, spec, s), replayValidate(g, spec, s)
		if diff := sameVerdict(got, want); diff != "" {
			t.Fatalf("%s\nspec %v\nschedule %+v", diff, spec, s)
		}
		if got == nil {
			if err := profileBySlots(g, spec, s, v.Segments()); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestProfileSegments checks the sweep on a plan small enough to read: the
// segments are the maximal runs of constant demand, per machine, gaps left
// out and equal neighbours merged.
func TestProfileSegments(t *testing.T) {
	b := dag.NewBuilder(2)
	plan := &Schedule{Makespan: 13}
	for _, p := range []struct {
		machine        int
		start, runtime int64
		demand         resource.Vector
	}{
		{0, 0, 4, resource.Of(10, 1)},  // alone on [0,2), with the next on [2,4)
		{0, 2, 4, resource.Of(5, 5)},   // alone again on [4,6)
		{0, 8, 2, resource.Of(7, 7)},   // after a gap; its twin follows at once
		{0, 10, 3, resource.Of(7, 7)},  // merged with the one before: [8,13)
		{0, 3, 1, resource.Of(0, 0)},   // asks for nothing: changes no segment
		{1, 1, 2, resource.Of(20, 20)}, // the other machine
	} {
		id := b.AddTask("t", p.runtime, p.demand)
		plan.Placements = append(plan.Placements, Placement{Task: id, Start: p.start, Machine: p.machine})
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := []Segment{
		{0, 0, 2, resource.Of(10, 1)},
		{0, 2, 4, resource.Of(15, 6)},
		{0, 4, 6, resource.Of(5, 5)},
		{0, 8, 13, resource.Of(7, 7)},
		{1, 1, 3, resource.Of(20, 20)},
	}
	spec := cluster.Uniform(2, resource.Of(50, 50))
	var v Validator
	for round := 0; round < 2; round++ { // the second sweep reuses the first one's scratch
		if err := v.Validate(g, spec, plan); err != nil {
			t.Fatal(err)
		}
		got := v.Segments()
		if len(got) != len(want) {
			t.Fatalf("round %d: %d segments %v, want %d", round, len(got), got, len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Machine != w.Machine || g.Start != w.Start || g.End != w.End || !g.Demand.Equal(w.Demand) {
				t.Errorf("round %d: segment %d = %+v, want %+v", round, i, g, w)
			}
		}
	}
}
