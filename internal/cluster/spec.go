package cluster

import (
	"errors"
	"fmt"
	"math"

	"spear/internal/resource"
)

// Errors reported by Spec validation.
var (
	ErrEmptySpec       = errors.New("cluster: spec has no machines")
	ErrMixedDims       = errors.New("cluster: machines disagree on resource dimensions")
	ErrMachineRange    = errors.New("cluster: machine index out of range")
	ErrNoMachine       = errors.New("cluster: no machine can hold the demand")
	ErrDuplicateID     = errors.New("cluster: duplicate machine name")
	ErrTooManyMachines = errors.New("cluster: more machines than a schedule action can address")
)

// Machine describes one machine of a cluster: a stable name and its
// per-dimension resource capacity.
type Machine struct {
	Name     string
	Capacity resource.Vector
}

// Spec describes a cluster as an ordered list of machines. Machine indices
// into the spec are the machine identifiers used throughout scheduling; a
// one-element spec is exactly the old single-box cluster. The zero value is
// invalid; build specs with Single or Uniform, or literally.
type Spec []Machine

// Single returns a one-machine spec with the given capacity — the
// single-box cluster every pre-multi-machine call site used.
func Single(capacity resource.Vector) Spec {
	return Spec{{Name: "m0", Capacity: capacity}}
}

// Uniform returns an n-machine spec where every machine has the same
// capacity. Machines are named m0..m{n-1}.
func Uniform(n int, capacity resource.Vector) Spec {
	s := make(Spec, n)
	for i := range s {
		s[i] = Machine{Name: fmt.Sprintf("m%d", i), Capacity: capacity.Clone()}
	}
	return s
}

// MaxMachines is the largest number of machines a spec may describe. A
// simenv schedule action packs the machine index into the 15 bits between
// its 16-bit slot and the int32 sign bit.
const MaxMachines = 1 << 15

// Validate checks that the spec is usable: at least one and at most
// MaxMachines machines, every capacity positive, all machines agreeing on
// the number of resource dimensions, no duplicate names, and a Total that
// fits an int64 in every dimension.
func (s Spec) Validate() error {
	if len(s) == 0 {
		return ErrEmptySpec
	}
	if len(s) > MaxMachines {
		return fmt.Errorf("%w: %d machines, at most %d", ErrTooManyMachines, len(s), MaxMachines)
	}
	dims := s[0].Capacity.Dims()
	for i, m := range s {
		if !m.Capacity.Positive() {
			return fmt.Errorf("%w: machine %d (%s): %v", ErrBadCapacity, i, m.Name, m.Capacity)
		}
		if m.Capacity.Dims() != dims {
			return fmt.Errorf("%w: machine %d (%s) has %d dims, machine 0 has %d",
				ErrMixedDims, i, m.Name, m.Capacity.Dims(), dims)
		}
		for j := 0; j < i; j++ {
			if s[j].Name == m.Name {
				return fmt.Errorf("%w: %q (machines %d and %d)", ErrDuplicateID, m.Name, j, i)
			}
		}
	}
	for d := 0; d < dims; d++ {
		var total int64
		for i, m := range s {
			if m.Capacity[d] > math.MaxInt64-total {
				return fmt.Errorf("%w: dimension %d of machines 0..%d totals more than %d", ErrBadCapacity, d, i, int64(math.MaxInt64))
			}
			total += m.Capacity[d]
		}
	}
	return nil
}

// Dims reports the number of resource dimensions. It is 0 for an empty spec.
func (s Spec) Dims() int {
	if len(s) == 0 {
		return 0
	}
	return s[0].Capacity.Dims()
}

// Total returns the aggregate capacity across all machines.
func (s Spec) Total() resource.Vector {
	total := resource.New(s.Dims())
	for _, m := range s {
		for d := range total {
			total[d] += m.Capacity[d]
		}
	}
	return total
}

// Fits reports whether at least one machine can hold the demand on an
// otherwise empty cluster.
func (s Spec) Fits(demand resource.Vector) bool {
	for _, m := range s {
		if demand.FitsWithin(m.Capacity) {
			return true
		}
	}
	return false
}

// Equal reports whether o describes the same cluster: the same machines, by
// name and capacity, in the same order.
func (s Spec) Equal(o Spec) bool {
	if len(s) != len(o) {
		return false
	}
	for i, m := range s {
		if m.Name != o[i].Name || !m.Capacity.Equal(o[i].Capacity) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the spec.
func (s Spec) Clone() Spec {
	out := make(Spec, len(s))
	for i, m := range s {
		out[i] = Machine{Name: m.Name, Capacity: m.Capacity.Clone()}
	}
	return out
}
