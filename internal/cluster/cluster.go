// Package cluster implements the resource-time space of the paper (§III-B):
// the cluster is a fixed-capacity, multi-dimensional resource pool whose
// occupancy is tracked per discrete time slot. Schedulers place tasks into
// the space; the occupancy at every slot must stay within capacity.
package cluster

import (
	"errors"
	"fmt"

	"spear/internal/obs"
	"spear/internal/resource"
)

// Errors reported by Space operations.
var (
	ErrBadCapacity = errors.New("cluster: capacity must be positive in every dimension")
	ErrBadDuration = errors.New("cluster: duration must be positive")
	ErrBadStart    = errors.New("cluster: start time is before the space's origin")
	ErrDoesNotFit  = errors.New("cluster: placement exceeds capacity")
	ErrNeverFits   = errors.New("cluster: demand exceeds total capacity")
	ErrUnderflow   = errors.New("cluster: removal would make occupancy negative")
)

// Space is a resource-time occupancy grid. Slot i covers the absolute time
// interval [origin+i, origin+i+1). The grid is one flat array, dims words
// per slot, that grows on demand as placements extend into the future.
//
// Monotone tail. front is the latest start of any placement, in whatever
// order placements arrived. Until a Remove succeeds, occupancy is
// non-increasing on [front, ∞), so a task fits at start >= front iff it fits
// the single row at start:
//
//  1. nothing was removed, so occupancy(t) is the sum of the placements'
//     demands over those with start <= t < end;
//  2. no placement starts after front, so for t >= front the condition is
//     just t < end, which only turns false as t grows;
//  3. a sum of non-increasing terms is non-increasing, so the row at start
//     is the fullest of [start, start+duration).
//
// An episode (simenv.Env) places at its clock, which never runs backwards,
// and sched.Validate replays placements sorted by start, so every probe of
// theirs is at or past front and reads one row. serve packs whole plans at
// the earliest offset that fits, mostly before front, and those probes scan
// the full duration; so does every probe once a Remove has carved a hole.
type Space struct {
	capacity resource.Vector
	origin   int64
	used     []int64 // used[i*dims+d] = occupancy of dimension d at time origin+i
	maxBusy  int64   // absolute time after which the space is empty
	front    int64   // latest start of any placement

	// Optional instrumentation (nil = off): slotReuse counts grid slots
	// opened inside the array's spare capacity, slotGrow those that made it
	// reallocate. Both are shared atomics, safe across the clones of one
	// episode, and are added to once per growth, not once per slot.
	slotReuse *obs.Counter
	slotGrow  *obs.Counter

	removed bool // a Remove succeeded: occupancy may rise again past front
}

// NewSpace returns an empty Space with the given capacity.
func NewSpace(capacity resource.Vector) (*Space, error) {
	if !capacity.Positive() {
		return nil, fmt.Errorf("%w: %v", ErrBadCapacity, capacity)
	}
	return &Space{capacity: capacity.Clone()}, nil
}

// Capacity returns a copy of the space's per-dimension capacity.
func (s *Space) Capacity() resource.Vector { return s.capacity.Clone() }

// Dims reports the number of resource dimensions.
func (s *Space) Dims() int { return s.capacity.Dims() }

// Origin returns the earliest absolute time still tracked by the space.
func (s *Space) Origin() int64 { return s.origin }

// MaxBusy returns the first absolute time at and after which the space has
// no occupancy. For an empty space it equals the origin.
func (s *Space) MaxBusy() int64 {
	if s.maxBusy < s.origin {
		return s.origin
	}
	return s.maxBusy
}

// Instrument attaches grid-growth counters to the space (nil disables).
// Clones made from the space share the counters.
func (s *Space) Instrument(slotReuse, slotGrow *obs.Counter) {
	s.slotReuse = slotReuse
	s.slotGrow = slotGrow
}

// Clone returns a deep copy of the space.
func (s *Space) Clone() *Space { return s.CloneInto(nil) }

// CloneInto copies s into dst, reusing dst's grid storage where possible so
// hot loops (MCTS rollouts) can recycle one scratch space instead of
// allocating a fresh grid per simulation. A nil dst allocates. Returns dst.
func (s *Space) CloneInto(dst *Space) *Space {
	if dst == nil {
		dst = &Space{}
	}
	dst.capacity = append(dst.capacity[:0], s.capacity...)
	dst.origin = s.origin
	dst.maxBusy = s.maxBusy
	dst.front = s.front
	dst.removed = s.removed
	dst.slotReuse = s.slotReuse
	dst.slotGrow = s.slotGrow
	dst.used = append(dst.used[:0], s.used...)
	return dst
}

// Reset empties the space and rewinds its clock to 0, keeping the capacity,
// the instrumentation and the grid's storage.
func (s *Space) Reset() {
	s.origin, s.maxBusy, s.front, s.removed = 0, 0, 0, false
	s.used = s.used[:0]
}

// CapacityDim returns the capacity of one dimension without copying the
// whole vector.
func (s *Space) CapacityDim(d int) int64 { return s.capacity[d] }

// rows returns the tracked part of the grid covering [start, start+duration),
// dims words per slot; slots past the tracked horizon are empty and left
// out. start must not precede the origin.
func (s *Space) rows(start, duration int64) []int64 {
	dims := int64(len(s.capacity))
	lo, n := (start-s.origin)*dims, int64(len(s.used))
	if lo >= n {
		return nil
	}
	if duration < n-lo { // so duration*dims cannot overflow
		n = min(n, lo+duration*dims)
	}
	return s.used[lo:n]
}

// row returns the occupancy at absolute time t, nil outside the tracked grid.
func (s *Space) row(t int64) []int64 {
	if t < s.origin {
		return nil
	}
	return s.rows(t, 1)
}

// grow extends the grid to n zeroed slots. Growth inside the array's spare
// capacity zeroes what Advance or CloneInto left there, so a warm space
// places tasks without touching the heap.
//
//spear:noalloc
func (s *Space) grow(n int64) {
	have, need := len(s.used), int(n)*len(s.capacity)
	if need <= have {
		return
	}
	if need > cap(s.used) {
		s.reallocate(need)
		return
	}
	s.used = s.used[:need]
	clear(s.used[have:])
	if s.slotReuse != nil {
		s.slotReuse.Add(int64((need - have) / len(s.capacity)))
	}
}

// reallocate moves the grid to an array of at least need words, doubling so
// that repeated growth stays amortized.
//
//spear:slowpath
func (s *Space) reallocate(need int) {
	grown := make([]int64, need, max(need, 2*cap(s.used)))
	copy(grown, s.used)
	if s.slotGrow != nil {
		s.slotGrow.Add(int64((need - len(s.used)) / len(s.capacity)))
	}
	s.used = grown
}

// UsedAt returns a copy of the occupancy at absolute time t. Times before
// the origin or beyond the tracked horizon report zero occupancy.
func (s *Space) UsedAt(t int64) resource.Vector {
	used := resource.New(s.capacity.Dims())
	copy(used, s.row(t))
	return used
}

// FitsAt reports whether a task with the given demand and duration can be
// placed starting at absolute time start without exceeding capacity in any
// slot. Demands that don't match the space's dimensions never fit.
func (s *Space) FitsAt(start int64, demand resource.Vector, duration int64) bool {
	if demand.Dims() != s.capacity.Dims() || duration <= 0 || start < s.origin {
		return false
	}
	if !demand.FitsWithin(s.capacity) {
		return false
	}
	if !s.removed && start >= s.front {
		duration = 1 // occupancy only falls from front on: the first row decides
	}
	// Untouched future slots are empty, so only tracked rows can conflict.
	return s.conflict(s.rows(start, duration), demand) < 0
}

// conflict returns the index of the first slot of rows that cannot take
// demand on top of what it holds, -1 if every slot can.
func (s *Space) conflict(rows []int64, demand resource.Vector) int {
	for i := 0; i < len(rows); i += len(demand) {
		for d, need := range demand {
			if rows[i+d]+need > s.capacity[d] {
				return i / len(demand)
			}
		}
	}
	return -1
}

// Cold-path error constructors for Place, which sits on the //spear:noalloc
// scheduling path where fmt is forbidden.
//
//spear:slowpath
func errBadDuration(duration int64) error {
	return fmt.Errorf("%w: %d", ErrBadDuration, duration)
}

//spear:slowpath
func errBadStart(start, origin int64) error {
	return fmt.Errorf("%w: start %d < origin %d", ErrBadStart, start, origin)
}

//spear:slowpath
func errDoesNotFit(start int64, demand resource.Vector, duration int64) error {
	return fmt.Errorf("%w: start=%d demand=%v duration=%d", ErrDoesNotFit, start, demand, duration)
}

// Place reserves demand for [start, start+duration). It fails with
// ErrDoesNotFit (leaving the space unchanged) if any slot would exceed
// capacity.
func (s *Space) Place(start int64, demand resource.Vector, duration int64) error {
	if duration <= 0 {
		return errBadDuration(duration)
	}
	if start < s.origin {
		return errBadStart(start, s.origin)
	}
	if demand.Dims() != s.capacity.Dims() {
		return resource.ErrDimensionMismatch
	}
	if !s.FitsAt(start, demand, duration) {
		return errDoesNotFit(start, demand, duration)
	}
	end := start + duration
	s.grow(end - s.origin)
	rows := s.rows(start, duration)
	for i := 0; i < len(rows); i += len(demand) {
		for d, need := range demand {
			rows[i+d] += need
		}
	}
	s.maxBusy = max(s.maxBusy, end)
	s.front = max(s.front, start)
	return nil
}

// Remove releases a previous placement. It fails with ErrUnderflow (leaving
// the space unchanged) if the described placement is not currently present.
func (s *Space) Remove(start int64, demand resource.Vector, duration int64) error {
	if duration <= 0 {
		return fmt.Errorf("%w: %d", ErrBadDuration, duration)
	}
	if start < s.origin {
		return fmt.Errorf("%w: start %d < origin %d", ErrBadStart, start, s.origin)
	}
	if demand.Dims() != s.capacity.Dims() {
		return resource.ErrDimensionMismatch
	}
	dims := len(demand)
	rows := s.rows(start, duration)
	if int64(len(rows)/dims) < duration {
		return fmt.Errorf("%w: slot %d untracked", ErrUnderflow, start+int64(len(rows)/dims))
	}
	for i := 0; i < len(rows); i += dims {
		for d, need := range demand {
			if rows[i+d] < need {
				return fmt.Errorf("%w: slot %d dim %d", ErrUnderflow, start+int64(i/dims), d)
			}
		}
	}
	for i := 0; i < len(rows); i += dims {
		for d, need := range demand {
			rows[i+d] -= need
		}
	}
	s.removed = true
	return nil
}

// EarliestStart returns the earliest time >= from at which a task with the
// given demand and duration fits. It returns ErrNeverFits when the demand
// exceeds the capacity of an empty cluster.
func (s *Space) EarliestStart(from int64, demand resource.Vector, duration int64) (int64, error) {
	if demand.Dims() != s.capacity.Dims() {
		return 0, resource.ErrDimensionMismatch
	}
	if duration <= 0 {
		return 0, fmt.Errorf("%w: %d", ErrBadDuration, duration)
	}
	if !demand.FitsWithin(s.capacity) {
		return 0, fmt.Errorf("%w: demand %v capacity %v", ErrNeverFits, demand, s.capacity)
	}
	start := max(from, s.origin)
	// Everything at and beyond maxBusy is empty.
	for start < s.MaxBusy() {
		i := s.lastConflict(s.rows(start, duration), demand)
		if i < 0 {
			break
		}
		// Every start up to the window's last conflicting slot still covers
		// that slot, so restart just past it: a saturated stretch is crossed
		// a whole duration at a time.
		start += int64(i) + 1
	}
	return start, nil
}

// lastConflict is conflict read from the window's end: the index of the
// last slot of rows that cannot take demand, -1 if every slot can.
func (s *Space) lastConflict(rows []int64, demand resource.Vector) int {
	for i := len(rows) - len(demand); i >= 0; i -= len(demand) {
		for d, need := range demand {
			if rows[i+d]+need > s.capacity[d] {
				return i / len(demand)
			}
		}
	}
	return -1
}

// Advance discards all occupancy strictly before absolute time to. The
// origin moves forward; placements may no longer start before it. Advancing
// backwards is a no-op. The surviving slots are copied down to the front of
// the array, whose tail becomes spare capacity for grow to reuse.
func (s *Space) Advance(to int64) {
	if to <= s.origin {
		return
	}
	s.used = s.used[:copy(s.used, s.rows(to, int64(len(s.used))))]
	s.origin = to
}
