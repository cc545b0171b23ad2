package resource

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndOf(t *testing.T) {
	v := New(3)
	if v.Dims() != 3 {
		t.Fatalf("Dims() = %d, want 3", v.Dims())
	}
	if !v.IsZero() {
		t.Errorf("New(3).IsZero() = false, want true")
	}

	w := Of(1, 2, 3)
	if w.Dims() != 3 || w[0] != 1 || w[1] != 2 || w[2] != 3 {
		t.Errorf("Of(1,2,3) = %v", w)
	}
}

func TestOfCopiesInput(t *testing.T) {
	src := []int64{5, 6}
	v := Of(src...)
	src[0] = 99
	if v[0] != 5 {
		t.Errorf("Of aliases its input: v = %v", v)
	}
}

func TestUniform(t *testing.T) {
	v := Uniform(4, 7)
	for i, x := range v {
		if x != 7 {
			t.Errorf("Uniform(4,7)[%d] = %d, want 7", i, x)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	v := Of(1, 2)
	c := v.Clone()
	c[0] = 42
	if v[0] != 1 {
		t.Errorf("Clone shares storage: v = %v", v)
	}
	if Vector(nil).Clone() != nil {
		t.Errorf("Clone of nil should be nil")
	}
}

func TestEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b Vector
		want bool
	}{
		{"equal", Of(1, 2), Of(1, 2), true},
		{"different values", Of(1, 2), Of(2, 1), false},
		{"different dims", Of(1), Of(1, 0), false},
		{"both empty", Of(), Of(), true},
		{"nil vs empty", nil, Of(), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Equal(tt.b); got != tt.want {
				t.Errorf("%v.Equal(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestPredicates(t *testing.T) {
	tests := []struct {
		name                        string
		v                           Vector
		zero, nonNegative, positive bool
	}{
		{"zero", Of(0, 0), true, true, false},
		{"positive", Of(1, 2), false, true, true},
		{"mixed", Of(1, 0), false, true, false},
		{"negative", Of(-1, 2), false, false, false},
		{"empty", Of(), true, true, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.IsZero(); got != tt.zero {
				t.Errorf("IsZero() = %v, want %v", got, tt.zero)
			}
			if got := tt.v.NonNegative(); got != tt.nonNegative {
				t.Errorf("NonNegative() = %v, want %v", got, tt.nonNegative)
			}
			if got := tt.v.Positive(); got != tt.positive {
				t.Errorf("Positive() = %v, want %v", got, tt.positive)
			}
		})
	}
}

func TestFitsWithin(t *testing.T) {
	cap := Of(10, 10)
	tests := []struct {
		name string
		v    Vector
		want bool
	}{
		{"fits strictly", Of(3, 4), true},
		{"fits exactly", Of(10, 10), true},
		{"one dim too big", Of(11, 4), false},
		{"other dim too big", Of(4, 11), false},
		{"dim mismatch", Of(1), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.FitsWithin(cap); got != tt.want {
				t.Errorf("%v.FitsWithin(%v) = %v, want %v", tt.v, cap, got, tt.want)
			}
		})
	}
}

func TestAddSub(t *testing.T) {
	a, b := Of(5, 7), Of(2, 3)

	sum, err := a.Add(b)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if !sum.Equal(Of(7, 10)) {
		t.Errorf("Add = %v, want (7, 10)", sum)
	}

	diff, err := a.Sub(b)
	if err != nil {
		t.Fatalf("Sub: %v", err)
	}
	if !diff.Equal(Of(3, 4)) {
		t.Errorf("Sub = %v, want (3, 4)", diff)
	}

	if _, err := a.Add(Of(1)); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Add dim mismatch: err = %v, want ErrDimensionMismatch", err)
	}
	if _, err := a.Sub(Of(1)); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Sub dim mismatch: err = %v, want ErrDimensionMismatch", err)
	}

	// Inputs must be untouched.
	if !a.Equal(Of(5, 7)) || !b.Equal(Of(2, 3)) {
		t.Errorf("Add/Sub mutated inputs: a=%v b=%v", a, b)
	}
}

func TestDot(t *testing.T) {
	got, err := Of(2, 3).Dot(Of(4, 5))
	if err != nil {
		t.Fatalf("Dot: %v", err)
	}
	if got != 23 {
		t.Errorf("Dot = %d, want 23", got)
	}
	if _, err := Of(1).Dot(Of(1, 2)); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Dot mismatch err = %v", err)
	}
}

func TestMax(t *testing.T) {
	v := Of(3, 9, 1)
	if v.Max() != 9 {
		t.Errorf("Max = %d, want 9", v.Max())
	}
	if Vector(nil).Max() != 0 {
		t.Errorf("nil Max != 0")
	}
}

func TestNormalized(t *testing.T) {
	fr, err := Of(250, 500).Normalized(Of(1000, 1000))
	if err != nil {
		t.Fatalf("Normalized: %v", err)
	}
	if fr[0] != 0.25 || fr[1] != 0.5 {
		t.Errorf("Normalized = %v, want [0.25 0.5]", fr)
	}

	if _, err := Of(1).Normalized(Of(1, 2)); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Normalized mismatch err = %v", err)
	}
	if _, err := Of(1, 1).Normalized(Of(1, 0)); err == nil {
		t.Errorf("Normalized with zero capacity: want error")
	}
}

func TestString(t *testing.T) {
	if got := Of(1, 20).String(); got != "(1, 20)" {
		t.Errorf("String = %q", got)
	}
	if got := Of().String(); got != "()" {
		t.Errorf("empty String = %q", got)
	}
}

// randomVector generates a vector for property tests.
func randomVector(r *rand.Rand, dims int, max int64) Vector {
	v := make(Vector, dims)
	for i := range v {
		v[i] = r.Int63n(max)
	}
	return v
}

func TestPropertyAddSubRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := 1 + r.Intn(4)
		a := randomVector(r, dims, 1000)
		b := randomVector(r, dims, 1000)
		sum, err := a.Add(b)
		if err != nil {
			return false
		}
		back, err := sum.Sub(b)
		if err != nil {
			return false
		}
		return back.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyFitsWithinAfterSub(t *testing.T) {
	// capacity - demand is always non-negative when demand fits.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := 1 + r.Intn(4)
		capacity := randomVector(r, dims, 1000)
		demand := make(Vector, dims)
		for i := range demand {
			if capacity[i] > 0 {
				demand[i] = r.Int63n(capacity[i] + 1)
			}
		}
		if !demand.FitsWithin(capacity) {
			return false
		}
		rest, err := capacity.Sub(demand)
		return err == nil && rest.NonNegative()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
