package cluster

import (
	"errors"
	"testing"

	"spear/internal/resource"
)

func TestSpecValidate(t *testing.T) {
	if err := (Spec{}).Validate(); !errors.Is(err, ErrEmptySpec) {
		t.Fatalf("empty spec: got %v, want ErrEmptySpec", err)
	}
	if err := Single(resource.Of(4, 8)).Validate(); err != nil {
		t.Fatalf("single: %v", err)
	}
	if err := Uniform(3, resource.Of(4, 8)).Validate(); err != nil {
		t.Fatalf("uniform: %v", err)
	}
	bad := Spec{{Name: "a", Capacity: resource.Of(4, 0)}}
	if err := bad.Validate(); !errors.Is(err, ErrBadCapacity) {
		t.Fatalf("zero capacity: got %v, want ErrBadCapacity", err)
	}
	mixed := Spec{{Name: "a", Capacity: resource.Of(4)}, {Name: "b", Capacity: resource.Of(4, 8)}}
	if err := mixed.Validate(); !errors.Is(err, ErrMixedDims) {
		t.Fatalf("mixed dims: got %v, want ErrMixedDims", err)
	}
	dup := Spec{{Name: "a", Capacity: resource.Of(4)}, {Name: "a", Capacity: resource.Of(4)}}
	if err := dup.Validate(); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("dup name: got %v, want ErrDuplicateID", err)
	}
}

func TestSpecTotalAndFits(t *testing.T) {
	spec := Spec{
		{Name: "big", Capacity: resource.Of(8, 8)},
		{Name: "small", Capacity: resource.Of(2, 2)},
	}
	if got := spec.Total(); !got.Equal(resource.Of(10, 10)) {
		t.Fatalf("Total = %v, want [10 10]", got)
	}
	if !spec.Fits(resource.Of(8, 3)) {
		t.Fatal("demand [8 3] should fit on the big machine")
	}
	if spec.Fits(resource.Of(9, 1)) {
		t.Fatal("demand [9 1] fits on no single machine")
	}
}

func TestMultiSingleMachineMatchesSpace(t *testing.T) {
	capacity := resource.Of(4, 4)
	m, err := NewMulti(Single(capacity))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSpace(capacity)
	if err != nil {
		t.Fatal(err)
	}
	d := resource.Of(2, 1)
	if err := m.Place(0, 3, d, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(3, d, 5); err != nil {
		t.Fatal(err)
	}
	mi, mStart, err := m.EarliestStartAny(0, resource.Of(3, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	sStart, err := s.EarliestStart(0, resource.Of(3, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	if mi != 0 || mStart != sStart {
		t.Fatalf("EarliestStartAny = (%d, %d), Space.EarliestStart = %d", mi, mStart, sStart)
	}
	const horizon = 10
	img := make([]float64, 2*horizon)
	m.FillOccupancy(0, horizon, 2, img)
	for k := 0; k < horizon; k++ {
		used := s.UsedAt(int64(k))
		for d := range capacity {
			if got, want := img[d*horizon+k], float64(used[d])/float64(capacity[d]); got != want {
				t.Fatalf("occupancy dim %d slot %d = %v, Space says %v", d, k, got, want)
			}
		}
	}
	if got, want := m.MaxBusy(), s.MaxBusy(); got != want {
		t.Fatalf("MaxBusy = %d, want %d", got, want)
	}
}

func TestMultiEarliestStartAnyPicksFreeMachine(t *testing.T) {
	m, err := NewMulti(Uniform(2, resource.Of(4)))
	if err != nil {
		t.Fatal(err)
	}
	// Fill machine 0 entirely for [0, 10).
	if err := m.Place(0, 0, resource.Of(4), 10); err != nil {
		t.Fatal(err)
	}
	mi, start, err := m.EarliestStartAny(0, resource.Of(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	if mi != 1 || start != 0 {
		t.Fatalf("got machine %d start %d, want machine 1 start 0", mi, start)
	}
	// A demand fitting machine 0 only after its busy period ties nothing:
	// machine 1 still wins at t=0.
	if err := m.Place(1, 0, resource.Of(1), 3); err != nil {
		t.Fatal(err)
	}
	mi, start, err = m.EarliestStartAny(0, resource.Of(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	if mi != 1 || start != 0 {
		t.Fatalf("got machine %d start %d, want machine 1 start 0", mi, start)
	}
}

func TestMultiEarliestStartAnySkipsTooSmallMachines(t *testing.T) {
	spec := Spec{
		{Name: "small", Capacity: resource.Of(2)},
		{Name: "big", Capacity: resource.Of(8)},
	}
	m, err := NewMulti(spec)
	if err != nil {
		t.Fatal(err)
	}
	mi, start, err := m.EarliestStartAny(0, resource.Of(5), 3)
	if err != nil {
		t.Fatal(err)
	}
	if mi != 1 || start != 0 {
		t.Fatalf("got machine %d start %d, want big machine at 0", mi, start)
	}
	if _, _, err := m.EarliestStartAny(0, resource.Of(9), 1); !errors.Is(err, ErrNoMachine) {
		t.Fatalf("oversized demand: got %v, want ErrNoMachine", err)
	}
}

// TestMultiEarliestStartAnyManyMachines checks the scan on a spec well past
// a handful of machines against a per-machine reference: the earliest start
// wins, and a tie goes to the lowest machine index.
func TestMultiEarliestStartAnyManyMachines(t *testing.T) {
	const n = 11
	m, err := NewMulti(Uniform(n, resource.Of(4)))
	if err != nil {
		t.Fatal(err)
	}
	// Stagger each machine's busy prefix so machine i frees up at time n-i.
	for i := 0; i < n; i++ {
		if err := m.Place(i, 0, resource.Of(4), int64(n-i)); err != nil {
			t.Fatal(err)
		}
	}
	// From 0 the last machine frees first; from n every machine is free at
	// once, so the tie must go to machine 0.
	for _, tc := range []struct {
		from    int64
		machine int
		start   int64
	}{{0, n - 1, 1}, {n, 0, n}} {
		wantMachine, wantStart := -1, int64(0)
		for i := 0; i < n; i++ {
			start, err := m.Machine(i).EarliestStart(tc.from, resource.Of(2), 2)
			if err != nil {
				t.Fatal(err)
			}
			if wantMachine < 0 || start < wantStart {
				wantMachine, wantStart = i, start
			}
		}
		if wantMachine != tc.machine || wantStart != tc.start {
			t.Fatalf("from %d: per-machine scan gives (%d, %d), want (%d, %d)", tc.from, wantMachine, wantStart, tc.machine, tc.start)
		}
		mi, start, err := m.EarliestStartAny(tc.from, resource.Of(2), 2)
		if err != nil {
			t.Fatal(err)
		}
		if mi != wantMachine || start != wantStart {
			t.Fatalf("from %d: got (%d, %d), want (%d, %d)", tc.from, mi, start, wantMachine, wantStart)
		}
	}
}

func TestMultiCloneInto(t *testing.T) {
	m, err := NewMulti(Uniform(2, resource.Of(4)))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Place(1, 2, resource.Of(3), 4); err != nil {
		t.Fatal(err)
	}
	clone := m.Clone()
	if err := clone.Place(1, 2, resource.Of(1), 4); err != nil {
		t.Fatal(err)
	}
	// The original must be unaffected by the clone's mutation.
	if got := m.Machine(1).UsedAt(2); !got.Equal(resource.Of(3)) {
		t.Fatalf("original used = %v after clone mutation, want [3]", got)
	}
	// Warm re-clone reuses storage and restores the original state.
	m.CloneInto(clone)
	if got := clone.Machine(1).UsedAt(2); !got.Equal(resource.Of(3)) {
		t.Fatalf("re-cloned used = %v, want [3]", got)
	}
	if clone.NumMachines() != 2 {
		t.Fatalf("clone machines = %d, want 2", clone.NumMachines())
	}
}

func TestMultiAdvanceAndAggregates(t *testing.T) {
	m, err := NewMulti(Uniform(2, resource.Of(4)))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Place(0, 0, resource.Of(2), 4); err != nil {
		t.Fatal(err)
	}
	if err := m.Place(1, 0, resource.Of(3), 2); err != nil {
		t.Fatal(err)
	}
	if got := m.AvailableAtInto(1, nil); !got.Equal(resource.Of(3)) {
		t.Fatalf("AvailableAtInto(1) = %v, want [3] (8 total - 2 - 3)", got)
	}
	out := make([]float64, 4)
	m.FillOccupancy(0, 4, 1, out)
	if out[0] != 5.0/8.0 || out[3] != 2.0/8.0 {
		t.Fatalf("aggregate occupancy = %v", out)
	}
	m.Advance(2)
	if m.Origin() != 2 {
		t.Fatalf("Origin = %d, want 2", m.Origin())
	}
	if got := m.AvailableAtInto(2, nil); !got.Equal(resource.Of(6)) {
		t.Fatalf("AvailableAtInto(2) after advance = %v, want [6]", got)
	}
}

// TestMultiWarmCloneDoesNotAllocate mirrors the Space fastpath gate: once a
// scratch Multi has been cloned into, re-cloning a same-shape source must
// not touch the heap.
func TestMultiWarmCloneDoesNotAllocate(t *testing.T) {
	m, err := NewMulti(Uniform(4, resource.Of(4, 4)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := m.Place(i, int64(i), resource.Of(2, 2), 6); err != nil {
			t.Fatal(err)
		}
	}
	scratch := m.Clone()
	allocs := testing.AllocsPerRun(100, func() {
		m.CloneInto(scratch)
	})
	if allocs != 0 {
		t.Fatalf("warm CloneInto allocated %.1f times per run, want 0", allocs)
	}
}
