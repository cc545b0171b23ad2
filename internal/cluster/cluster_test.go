package cluster

import (
	"errors"
	"math/rand"
	"slices"
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

func TestRemove(t *testing.T) {
	s := newSpace(t, 10)
	if err := s.Place(1, resource.Of(5), 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(1, resource.Of(5), 3); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	for tm := int64(0); tm < 6; tm++ {
		if got := s.UsedAt(tm); !got.IsZero() {
			t.Errorf("UsedAt(%d) = %v after Remove, want zero", tm, got)
		}
	}
	// Removing again underflows and must not modify anything.
	if err := s.Remove(1, resource.Of(5), 3); !errors.Is(err, ErrUnderflow) {
		t.Errorf("double Remove err = %v, want ErrUnderflow", err)
	}
}

func TestRemovePartialOverlapUnderflow(t *testing.T) {
	s := newSpace(t, 10)
	if err := s.Place(0, resource.Of(5), 2); err != nil {
		t.Fatal(err)
	}
	// Removal extends one slot past the placement: underflow; space intact.
	if err := s.Remove(0, resource.Of(5), 3); !errors.Is(err, ErrUnderflow) {
		t.Fatalf("Remove err = %v, want ErrUnderflow", err)
	}
	if got := s.UsedAt(0); !got.Equal(resource.Of(5)) {
		t.Errorf("failed Remove modified space: UsedAt(0) = %v", got)
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

func TestOccupancyImage(t *testing.T) {
	m, err := NewMulti(Single(resource.Of(10, 20)))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Place(0, 2, resource.Of(5, 5), 2); err != nil {
		t.Fatal(err)
	}
	img := make([]float64, 2*5) // img[d*5+k]
	m.FillOccupancy(0, 5, 2, img)
	if want := []float64{0, 0, 0.5, 0.5, 0, 0, 0, 0.25, 0.25, 0}; !slices.Equal(img, want) {
		t.Errorf("image = %v, want %v", img, want)
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
