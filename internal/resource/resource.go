// Package resource provides exact, integer-valued multi-dimensional resource
// vectors used throughout the scheduler: cluster capacities, task demands and
// per-slot occupancy all share the same representation.
//
// Values are int64 "units". Workload generators conventionally scale a
// capacity of 1.0 (as in the paper's motivating example) to 1000 units per
// dimension, which keeps all packing arithmetic exact and property-test
// friendly.
package resource

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Vector is a fixed-dimension resource amount, e.g. {CPU, memory}.
// The zero-length Vector is valid and represents "no resources".
type Vector []int64

// ErrDimensionMismatch is returned by operations that combine vectors of
// different dimensionality.
var ErrDimensionMismatch = errors.New("resource: dimension mismatch")

// New returns a zero vector with the given number of dimensions.
func New(dims int) Vector {
	return make(Vector, dims)
}

// Of builds a vector from the given per-dimension values.
func Of(values ...int64) Vector {
	v := make(Vector, len(values))
	copy(v, values)
	return v
}

// Uniform returns a vector with every dimension set to value.
func Uniform(dims int, value int64) Vector {
	v := make(Vector, dims)
	for i := range v {
		v[i] = value
	}
	return v
}

// Dims reports the number of resource dimensions.
func (v Vector) Dims() int { return len(v) }

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	if v == nil {
		return nil
	}
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Equal reports whether v and o have the same dimensions and values.
func (v Vector) Equal(o Vector) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether every dimension of v is zero.
func (v Vector) IsZero() bool {
	for i := range v {
		if v[i] != 0 {
			return false
		}
	}
	return true
}

// NonNegative reports whether every dimension of v is >= 0.
func (v Vector) NonNegative() bool {
	for i := range v {
		if v[i] < 0 {
			return false
		}
	}
	return true
}

// Positive reports whether every dimension of v is > 0.
func (v Vector) Positive() bool {
	if len(v) == 0 {
		return false
	}
	for i := range v {
		if v[i] <= 0 {
			return false
		}
	}
	return true
}

// FitsWithin reports whether v <= capacity in every dimension.
func (v Vector) FitsWithin(capacity Vector) bool {
	if len(v) != len(capacity) {
		return false
	}
	for i := range v {
		if v[i] > capacity[i] {
			return false
		}
	}
	return true
}

// Add returns v + o as a new vector.
func (v Vector) Add(o Vector) (Vector, error) {
	if len(v) != len(o) {
		return nil, ErrDimensionMismatch
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + o[i]
	}
	return out, nil
}

// Sub returns v - o as a new vector.
func (v Vector) Sub(o Vector) (Vector, error) {
	if len(v) != len(o) {
		return nil, ErrDimensionMismatch
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - o[i]
	}
	return out, nil
}

// Dot returns the inner product of v and o. This is the alignment score used
// by Tetris-style packing: higher means the demand lines up better with the
// available capacity.
func (v Vector) Dot(o Vector) (int64, error) {
	if len(v) != len(o) {
		return 0, ErrDimensionMismatch
	}
	var sum int64
	for i := range v {
		sum += v[i] * o[i]
	}
	return sum, nil
}

// Max returns the largest single dimension of v, or 0 for the empty vector.
func (v Vector) Max() int64 {
	var m int64
	for i := range v {
		if v[i] > m {
			m = v[i]
		}
	}
	return m
}

// Normalized returns v with each dimension divided by the matching capacity
// dimension, as float64 fractions in [0, 1] for feasible demands. It is used
// when featurizing states for the neural network.
func (v Vector) Normalized(capacity Vector) ([]float64, error) {
	if len(v) != len(capacity) {
		return nil, ErrDimensionMismatch
	}
	out := make([]float64, len(v))
	for i := range v {
		if capacity[i] == 0 {
			return nil, fmt.Errorf("resource: zero capacity in dimension %d", i)
		}
		out[i] = float64(v[i]) / float64(capacity[i])
	}
	return out, nil
}

// String renders the vector as "(a, b, ...)".
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, x := range v {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.FormatInt(x, 10))
	}
	b.WriteByte(')')
	return b.String()
}
