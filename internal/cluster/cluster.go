// Package cluster implements the resource-time space of the paper (§III-B):
// the cluster is a fixed-capacity, multi-dimensional resource pool whose
// occupancy is tracked per discrete time slot. Schedulers place tasks into
// the space; the occupancy at every slot must stay within capacity.
package cluster

import (
	"errors"
	"fmt"

	"spear/internal/resource"
)

// Errors reported by Space operations.
var (
	ErrBadCapacity = errors.New("cluster: capacity must be positive, and its total an int64, in every dimension")
	ErrBadDuration = errors.New("cluster: duration must be positive")
	ErrBadStart    = errors.New("cluster: start time is before the space's origin")
	ErrDoesNotFit  = errors.New("cluster: placement exceeds capacity")
	ErrNeverFits   = errors.New("cluster: demand exceeds total capacity")
	ErrTooLong     = errors.New("cluster: placement ends too far past the space's origin")
)

// MaxSpan is the furthest past its origin, in slots, that a placement may
// end. It bounds the grid at MaxSpan rows, far above what serving's backlog
// reaches, so a huge runtime is refused instead of exhausting memory.
const MaxSpan = 1 << 24

// Space is a resource-time occupancy grid. Slot i covers the absolute time
// interval [origin+i, origin+i+1). The grid is one flat array, dims words
// per slot, that grows on demand as placements extend into the future.
//
// Monotone tail. front is the latest start of any placement, in whatever
// order placements arrived. Occupancy is non-increasing on [front, ∞), so a
// task fits at start >= front iff it fits the single row at start:
//
//  1. nothing is ever taken out of the grid, so occupancy(t) is the sum of
//     the placements' demands over those with start <= t < end;
//  2. no placement starts after front, so for t >= front the condition is
//     just t < end, which only turns false as t grows;
//  3. a sum of non-increasing terms is non-increasing, so the row at start
//     is the fullest of [start, start+duration).
//
// serve and Graphene's virtual placement pack at the earliest start that
// fits, often before front, and those probes scan the full duration; each
// probe at or past front reads one row.
type Space struct {
	capacity resource.Vector
	origin   int64
	used     []int64 // used[i*dims+d] = occupancy of dimension d at time origin+i
	maxBusy  int64   // absolute time after which the space is empty
	front    int64   // latest start of any placement
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
	dst.used = append(dst.used[:0], s.used...)
	return dst
}

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

// grow extends the grid to n zeroed slots. Growth inside the array's spare
// capacity zeroes what Advance or CloneInto left there, so a warm space
// places tasks without touching the heap.
func (s *Space) grow(n int64) {
	have, need := len(s.used), int(n)*len(s.capacity)
	if need <= have {
		return
	}
	if need > cap(s.used) { // double, so that repeated growth stays amortized
		s.used = append(make([]int64, 0, max(need, 2*cap(s.used))), s.used...)
	}
	s.used = s.used[:need]
	clear(s.used[have:])
}

// UsedAt returns a copy of the occupancy at absolute time t. Times before
// the origin or beyond the tracked horizon report zero occupancy.
func (s *Space) UsedAt(t int64) resource.Vector {
	used := resource.New(s.capacity.Dims())
	if t >= s.origin {
		copy(used, s.rows(t, 1))
	}
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
	if start >= s.front {
		duration = 1 // occupancy only falls from front on: the first row decides
	}
	// Untouched future slots are empty, so only tracked rows can conflict.
	return s.lastConflict(s.rows(start, duration), demand) < 0
}

// Cold-path error constructors for Place, which sits on the allocation-free
// scheduling path: fmt allocates, so it stays out of its body.
func errBadDuration(duration int64) error {
	return fmt.Errorf("%w: %d", ErrBadDuration, duration)
}

func errBadStart(start, origin int64) error {
	return fmt.Errorf("%w: start %d < origin %d", ErrBadStart, start, origin)
}

func errTooLong(start, duration int64) error {
	return fmt.Errorf("%w: start=%d duration=%d, at most %d slots", ErrTooLong, start, duration, MaxSpan)
}

func errDoesNotFit(start int64, demand resource.Vector, duration int64) error {
	return fmt.Errorf("%w: start=%d demand=%v duration=%d", ErrDoesNotFit, start, demand, duration)
}

// Place reserves demand for [start, start+duration). It fails with
// ErrDoesNotFit (leaving the space unchanged) if any slot would exceed
// capacity, and with ErrTooLong if it would end more than MaxSpan slots past
// the origin. A demand that is zero in every dimension occupies nothing: the
// rows hold what they held and MaxBusy stays where it was.
func (s *Space) Place(start int64, demand resource.Vector, duration int64) error {
	if duration <= 0 {
		return errBadDuration(duration)
	}
	if start < s.origin {
		return errBadStart(start, s.origin)
	}
	if duration > MaxSpan-(start-s.origin) {
		return errTooLong(start, duration)
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
	if end > s.maxBusy && !demand.IsZero() {
		s.maxBusy = end
	}
	s.front = max(s.front, start)
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

// lastConflict returns the index of the last slot of rows that cannot take
// demand on top of what it holds, -1 if every slot can. need > capacity -
// used is the fit test that cannot wrap: both sides stay within int64.
func (s *Space) lastConflict(rows []int64, demand resource.Vector) int {
	for i := len(rows) - len(demand); i >= 0; i -= len(demand) {
		for d, need := range demand {
			if need > s.capacity[d]-rows[i+d] {
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
