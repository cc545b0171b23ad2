package cluster

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spear/internal/resource"
)

func newSpace(t *testing.T, capacity ...int64) *Space {
	t.Helper()
	s, err := NewSpace(resource.Of(capacity...))
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	return s
}

func TestNewSpaceValidation(t *testing.T) {
	if _, err := NewSpace(resource.Of(0, 5)); !errors.Is(err, ErrBadCapacity) {
		t.Errorf("zero capacity: err = %v, want ErrBadCapacity", err)
	}
	if _, err := NewSpace(resource.Of()); !errors.Is(err, ErrBadCapacity) {
		t.Errorf("empty capacity: err = %v, want ErrBadCapacity", err)
	}
}

func TestCapacityIsCopied(t *testing.T) {
	capVec := resource.Of(10, 10)
	s, err := NewSpace(capVec)
	if err != nil {
		t.Fatal(err)
	}
	capVec[0] = 1
	if got := s.Capacity(); !got.Equal(resource.Of(10, 10)) {
		t.Errorf("Capacity aliased constructor arg: %v", got)
	}
	got := s.Capacity()
	got[0] = 1
	if !s.Capacity().Equal(resource.Of(10, 10)) {
		t.Errorf("Capacity() returns aliased slice")
	}
}

func TestPlaceAndUsedAt(t *testing.T) {
	s := newSpace(t, 10, 10)
	if err := s.Place(2, resource.Of(4, 6), 3); err != nil {
		t.Fatalf("Place: %v", err)
	}
	for _, tc := range []struct {
		time int64
		want resource.Vector
	}{
		{1, resource.Of(0, 0)},
		{2, resource.Of(4, 6)},
		{4, resource.Of(4, 6)},
		{5, resource.Of(0, 0)},
	} {
		if got := s.UsedAt(tc.time); !got.Equal(tc.want) {
			t.Errorf("UsedAt(%d) = %v, want %v", tc.time, got, tc.want)
		}
	}
	if got := s.MaxBusy(); got != 5 {
		t.Errorf("MaxBusy = %d, want 5", got)
	}
}

func TestPlaceRejectsOverflow(t *testing.T) {
	s := newSpace(t, 10)
	if err := s.Place(0, resource.Of(7), 5); err != nil {
		t.Fatalf("first Place: %v", err)
	}
	// Overlaps [0,5): 7+4 > 10.
	if err := s.Place(3, resource.Of(4), 4); !errors.Is(err, ErrDoesNotFit) {
		t.Fatalf("overlapping Place err = %v, want ErrDoesNotFit", err)
	}
	// The failed placement must not have partially modified the space.
	if got := s.UsedAt(6); !got.Equal(resource.Of(0)) {
		t.Errorf("failed Place leaked occupancy at 6: %v", got)
	}
	// Non-overlapping fits.
	if err := s.Place(5, resource.Of(4), 4); err != nil {
		t.Errorf("disjoint Place: %v", err)
	}
}

func TestPlaceArgumentValidation(t *testing.T) {
	s := newSpace(t, 10)
	if err := s.Place(0, resource.Of(1), 0); !errors.Is(err, ErrBadDuration) {
		t.Errorf("zero duration err = %v", err)
	}
	if err := s.Place(-1, resource.Of(1), 1); !errors.Is(err, ErrBadStart) {
		t.Errorf("negative start err = %v", err)
	}
	if err := s.Place(0, resource.Of(1, 1), 1); !errors.Is(err, resource.ErrDimensionMismatch) {
		t.Errorf("dim mismatch err = %v", err)
	}
	if err := s.Place(0, resource.Of(11), 1); !errors.Is(err, ErrDoesNotFit) {
		t.Errorf("over-capacity err = %v", err)
	}
	// A grid past MaxSpan rows is refused, not allocated, down to the slot.
	for _, start := range []int64{0, 7, MaxSpan - 1} {
		if err := s.Place(start, resource.Of(1), MaxSpan-start+1); !errors.Is(err, ErrTooLong) {
			t.Errorf("start %d, one slot past MaxSpan: err = %v, want ErrTooLong", start, err)
		}
	}
	if err := s.Place(math.MaxInt64-1, resource.Of(1), math.MaxInt64); !errors.Is(err, ErrTooLong) {
		t.Errorf("end past MaxInt64: err = %v, want ErrTooLong", err)
	}
	if err := s.Place(1, resource.Of(1), MaxSpan-1); err != nil {
		t.Errorf("ending at MaxSpan: %v", err)
	}
}

func TestFitsAt(t *testing.T) {
	s := newSpace(t, 10)
	if err := s.Place(0, resource.Of(8), 4); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name     string
		start    int64
		demand   resource.Vector
		duration int64
		want     bool
	}{
		{"fits alongside", 0, resource.Of(2), 4, true},
		{"too big alongside", 0, resource.Of(3), 1, false},
		{"fits after", 4, resource.Of(10), 100, true},
		{"straddles boundary", 3, resource.Of(3), 2, false},
		{"zero duration", 4, resource.Of(1), 0, false},
		{"dim mismatch", 4, resource.Of(1, 1), 1, false},
		{"exceeds capacity outright", 50, resource.Of(11), 1, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := s.FitsAt(tt.start, tt.demand, tt.duration); got != tt.want {
				t.Errorf("FitsAt(%d, %v, %d) = %v, want %v", tt.start, tt.demand, tt.duration, got, tt.want)
			}
		})
	}
}

// TestZeroDemandOccupiesNothing: a placement that asks for nothing in every
// dimension leaves each row and MaxBusy as they were, on an empty space, on
// a full one and past the end of what is placed.
func TestZeroDemandOccupiesNothing(t *testing.T) {
	s := newSpace(t, 10, 10)
	if err := s.Place(0, resource.Of(0, 0), 4); err != nil {
		t.Fatal(err)
	}
	if got := s.MaxBusy(); got != 0 {
		t.Fatalf("MaxBusy = %d after a zero demand on an empty space, want 0", got)
	}
	if err := s.Place(2, resource.Of(10, 10), 3); err != nil {
		t.Fatal(err)
	}
	before := make([]resource.Vector, 20)
	for tm := range before {
		before[tm] = s.UsedAt(int64(tm))
	}
	for _, start := range []int64{2, 4, 6} {
		if err := s.Place(start, resource.Of(0, 0), 9); err != nil {
			t.Fatalf("zero demand at %d: %v", start, err)
		}
		if got := s.MaxBusy(); got != 5 {
			t.Errorf("MaxBusy = %d after a zero demand at %d, want 5", got, start)
		}
		for tm, want := range before {
			if got := s.UsedAt(int64(tm)); !got.Equal(want) {
				t.Errorf("UsedAt(%d) = %v after a zero demand at %d, want %v", tm, got, start, want)
			}
		}
	}
}

func TestEarliestStart(t *testing.T) {
	s := newSpace(t, 10)
	if err := s.Place(0, resource.Of(8), 5); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(5, resource.Of(4), 5); err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name     string
		from     int64
		demand   resource.Vector
		duration int64
		want     int64
	}{
		{"fits immediately in gap", 0, resource.Of(2), 100, 0},
		{"must wait for first block", 0, resource.Of(3), 2, 5},
		{"must wait for both", 0, resource.Of(7), 1, 10},
		{"from pushes start", 7, resource.Of(2), 1, 7},
		{"empty future", 100, resource.Of(10), 50, 100},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := s.EarliestStart(tt.from, tt.demand, tt.duration)
			if err != nil {
				t.Fatalf("EarliestStart: %v", err)
			}
			if got != tt.want {
				t.Errorf("EarliestStart = %d, want %d", got, tt.want)
			}
			if !s.FitsAt(got, tt.demand, tt.duration) {
				t.Errorf("EarliestStart result %d does not fit", got)
			}
		})
	}

	if _, err := s.EarliestStart(0, resource.Of(11), 1); !errors.Is(err, ErrNeverFits) {
		t.Errorf("impossible demand err = %v, want ErrNeverFits", err)
	}
	if _, err := s.EarliestStart(0, resource.Of(1, 1), 1); !errors.Is(err, resource.ErrDimensionMismatch) {
		t.Errorf("dim mismatch err = %v", err)
	}
	if _, err := s.EarliestStart(0, resource.Of(1), 0); !errors.Is(err, ErrBadDuration) {
		t.Errorf("bad duration err = %v", err)
	}
}

func TestEarliestStartMinimality(t *testing.T) {
	// Property: no time earlier than the returned start fits.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, err := NewSpace(resource.Of(10, 10))
		if err != nil {
			return false
		}
		for i := 0; i < 12; i++ {
			d := resource.Of(r.Int63n(10)+1, r.Int63n(10)+1)
			start, err := s.EarliestStart(r.Int63n(20), d, r.Int63n(5)+1)
			if err != nil {
				return false
			}
			_ = s.Place(start, d, r.Int63n(5)+1)
		}
		demand := resource.Of(r.Int63n(10)+1, r.Int63n(10)+1)
		duration := r.Int63n(6) + 1
		from := r.Int63n(10)
		got, err := s.EarliestStart(from, demand, duration)
		if err != nil || got < from {
			return false
		}
		if !s.FitsAt(got, demand, duration) {
			return false
		}
		for tm := from; tm < got; tm++ {
			if s.FitsAt(tm, demand, duration) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestClone(t *testing.T) {
	s := newSpace(t, 10)
	if err := s.Place(0, resource.Of(5), 3); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if err := c.Place(0, resource.Of(5), 3); err != nil {
		t.Fatalf("Place on clone: %v", err)
	}
	if got := s.UsedAt(0); !got.Equal(resource.Of(5)) {
		t.Errorf("mutating clone changed original: %v", got)
	}
	if got := c.UsedAt(0); !got.Equal(resource.Of(10)) {
		t.Errorf("clone UsedAt = %v, want (10)", got)
	}
}

func TestAdvance(t *testing.T) {
	s := newSpace(t, 10)
	if err := s.Place(0, resource.Of(3), 10); err != nil {
		t.Fatal(err)
	}
	s.Advance(4)
	if s.Origin() != 4 {
		t.Fatalf("Origin = %d, want 4", s.Origin())
	}
	if got := s.UsedAt(5); !got.Equal(resource.Of(3)) {
		t.Errorf("UsedAt(5) after Advance = %v, want (3)", got)
	}
	// Placements can no longer start before the origin.
	if err := s.Place(3, resource.Of(1), 1); !errors.Is(err, ErrBadStart) {
		t.Errorf("Place before origin err = %v, want ErrBadStart", err)
	}
	// Advancing backwards is a no-op.
	s.Advance(2)
	if s.Origin() != 4 {
		t.Errorf("Advance backwards moved origin to %d", s.Origin())
	}
	// Advancing past everything empties the space.
	s.Advance(100)
	if got := s.UsedAt(100); !got.IsZero() {
		t.Errorf("UsedAt after full Advance = %v", got)
	}
	if err := s.Place(100, resource.Of(10), 5); err != nil {
		t.Errorf("Place after full Advance: %v", err)
	}
}

func TestPropertyOccupancyNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		capacity := resource.Of(r.Int63n(20)+1, r.Int63n(20)+1)
		s, err := NewSpace(capacity)
		if err != nil {
			return false
		}
		for i := 0; i < 40; i++ {
			demand := resource.Of(r.Int63n(25), r.Int63n(25))
			start := r.Int63n(30)
			duration := r.Int63n(8) + 1
			_ = s.Place(start, demand, duration) // failures are fine
		}
		for tm := int64(0); tm < 45; tm++ {
			if !s.UsedAt(tm).FitsWithin(capacity) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
