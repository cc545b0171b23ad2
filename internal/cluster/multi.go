package cluster

import (
	"fmt"

	"spear/internal/obs"
	"spear/internal/resource"
)

// Multi is the multi-machine resource-time space: one occupancy grid per
// machine of a Spec, sharing a single clock. A one-machine Multi behaves
// exactly like the Space it wraps. Like Space, a Multi is cloned per
// rollout episode, so cloning reuses storage.
type Multi struct {
	spec   Spec // read-only after construction; shared across clones
	spaces []*Space
	total  resource.Vector // aggregate capacity across machines
}

// NewMulti returns an empty multi-machine space for the spec. The spec is
// retained without copying and must not be mutated afterwards.
func NewMulti(spec Spec) (*Multi, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := &Multi{spec: spec, spaces: make([]*Space, len(spec)), total: spec.Total()}
	for i, mc := range spec {
		sp, err := NewSpace(mc.Capacity)
		if err != nil {
			return nil, err
		}
		m.spaces[i] = sp
	}
	return m, nil
}

// NumMachines reports the number of machines.
func (m *Multi) NumMachines() int { return len(m.spaces) }

// Spec returns the cluster spec backing the space. The caller must treat it
// as read-only.
func (m *Multi) Spec() Spec { return m.spec }

// Dims reports the number of resource dimensions.
func (m *Multi) Dims() int { return m.total.Dims() }

// TotalCapacity returns a copy of the aggregate capacity across machines.
func (m *Multi) TotalCapacity() resource.Vector { return m.total.Clone() }

// TotalCapacityDim returns one dimension of the aggregate capacity without
// copying the vector.
func (m *Multi) TotalCapacityDim(d int) int64 { return m.total[d] }

// Machine returns machine i's occupancy grid.
func (m *Multi) Machine(i int) *Space { return m.spaces[i] }

// Instrument attaches pool-reuse counters to every machine's grid.
func (m *Multi) Instrument(slotReuse, slotGrow *obs.Counter) {
	for _, sp := range m.spaces {
		sp.Instrument(slotReuse, slotGrow)
	}
}

// Reset empties every machine's grid and rewinds the shared clock to 0.
func (m *Multi) Reset() {
	for _, sp := range m.spaces {
		sp.Reset()
	}
}

// Clone returns a deep copy of the multi-space.
func (m *Multi) Clone() *Multi { return m.CloneInto(nil) }

// CloneInto copies m into dst, reusing dst's per-machine grids where
// possible so rollout loops can recycle one scratch space. A nil dst
// allocates. Returns dst.
func (m *Multi) CloneInto(dst *Multi) *Multi {
	if dst == nil {
		dst = &Multi{}
	}
	dst.spec = m.spec
	dst.total = append(dst.total[:0], m.total...)
	if cap(dst.spaces) >= len(m.spaces) {
		dst.spaces = dst.spaces[:len(m.spaces)]
	} else {
		grown := make([]*Space, len(m.spaces))
		copy(grown, dst.spaces[:cap(dst.spaces)])
		dst.spaces = grown
	}
	for i, sp := range m.spaces {
		dst.spaces[i] = sp.CloneInto(dst.spaces[i])
	}
	return dst
}

// Origin returns the earliest absolute time still tracked (shared clock).
func (m *Multi) Origin() int64 { return m.spaces[0].Origin() }

// MaxBusy returns the first absolute time at and after which every machine
// is empty.
func (m *Multi) MaxBusy() int64 {
	busy := m.spaces[0].MaxBusy()
	for _, sp := range m.spaces[1:] {
		if b := sp.MaxBusy(); b > busy {
			busy = b
		}
	}
	return busy
}

// Advance discards occupancy strictly before absolute time to on every
// machine.
func (m *Multi) Advance(to int64) {
	for _, sp := range m.spaces {
		sp.Advance(to)
	}
}

//spear:slowpath
func errNoSuchMachine(machine, n int) error {
	return fmt.Errorf("%w: %d of %d", errMachineRange, machine, n)
}

// FitsAt reports whether the task fits on the given machine starting at
// start. Out-of-range machines never fit.
func (m *Multi) FitsAt(machine int, start int64, demand resource.Vector, duration int64) bool {
	if machine < 0 || machine >= len(m.spaces) {
		return false
	}
	return m.spaces[machine].FitsAt(start, demand, duration)
}

// Place reserves demand on the given machine for [start, start+duration).
func (m *Multi) Place(machine int, start int64, demand resource.Vector, duration int64) error {
	if machine < 0 || machine >= len(m.spaces) {
		return errNoSuchMachine(machine, len(m.spaces))
	}
	return m.spaces[machine].Place(start, demand, duration)
}

// Remove releases a previous placement on the given machine.
func (m *Multi) Remove(machine int, start int64, demand resource.Vector, duration int64) error {
	if machine < 0 || machine >= len(m.spaces) {
		return errNoSuchMachine(machine, len(m.spaces))
	}
	return m.spaces[machine].Remove(start, demand, duration)
}

// EarliestStart returns the earliest time >= from at which the task fits on
// the given machine.
func (m *Multi) EarliestStart(machine int, from int64, demand resource.Vector, duration int64) (int64, error) {
	if machine < 0 || machine >= len(m.spaces) {
		return 0, errNoSuchMachine(machine, len(m.spaces))
	}
	return m.spaces[machine].EarliestStart(from, demand, duration)
}

// EarliestStartAny probes every machine for the earliest start >= from and
// returns the machine achieving the minimum, ties broken toward the lowest
// machine index — the earliest-finish-time rule, since runtimes don't vary
// by machine. Machines too small for the demand are skipped; if none can
// hold it, ErrNoMachine is returned.
func (m *Multi) EarliestStartAny(from int64, demand resource.Vector, duration int64) (int, int64, error) {
	if duration <= 0 {
		return 0, 0, errBadDuration(duration)
	}
	if demand.Dims() != m.total.Dims() {
		return 0, 0, resource.ErrDimensionMismatch
	}
	best, bestStart := -1, int64(0)
	for i, sp := range m.spaces {
		if !demand.FitsWithin(m.spec[i].Capacity) {
			continue
		}
		start, err := sp.EarliestStart(from, demand, duration)
		if err != nil {
			return 0, 0, err
		}
		if best < 0 || start < bestStart {
			best, bestStart = i, start
		}
	}
	if best < 0 {
		return 0, 0, fmt.Errorf("%w: demand %v", ErrNoMachine, demand)
	}
	return best, bestStart, nil
}

// AvailableAtInto appends the aggregate free capacity across machines at
// absolute time t to buf (typically buf[:0]) and returns the extended
// slice, without allocating when buf has room.
func (m *Multi) AvailableAtInto(t int64, buf resource.Vector) resource.Vector {
	n := len(buf)
	buf = append(buf, m.total...)
	for _, sp := range m.spaces {
		for d, u := range sp.row(t) {
			buf[n+d] -= u
		}
	}
	return buf
}

// FillOccupancy writes the aggregate normalized occupancy of horizon slots
// starting at absolute time from into out, laid out out[d*horizon+k] for
// dimension d and slot k — occupancy summed across machines over total
// capacity, in [0, 1]. This is the cluster-state half of the DRL input
// (paper §III-D). At most dims dimensions are written (clamped to the
// cluster's dimensionality); out must hold at least dims*horizon entries,
// and its first min(dims, Dims())*horizon entries are overwritten.
func (m *Multi) FillOccupancy(from int64, horizon, dims int, out []float64) {
	if d := m.total.Dims(); dims > d {
		dims = d
	}
	region := out[:dims*horizon]
	clear(region)
	for _, sp := range m.spaces {
		for k := 0; k < horizon; k++ {
			if row := sp.row(from + int64(k)); row != nil {
				for d := 0; d < dims; d++ {
					region[d*horizon+k] += float64(row[d])
				}
			}
		}
	}
	for k := 0; k < horizon; k++ {
		for d := 0; d < dims; d++ {
			region[d*horizon+k] /= float64(m.total[d])
		}
	}
}
