package cluster

import (
	"errors"
	"testing"

	"spear/internal/resource"
)

// spaceModel is the naive reference the fuzz targets compare a Space with:
// occupancy in a map keyed by absolute time, every operation written from
// the documented contract with no regard for cost.
type spaceModel struct {
	capacity resource.Vector
	origin   int64
	maxBusy  int64
	used     map[int64]resource.Vector
	// What decides how much of a task FitsAt reads, from its contract: the
	// latest start.
	front int64
}

func newSpaceModel(capacity resource.Vector) *spaceModel {
	return &spaceModel{capacity: capacity, used: map[int64]resource.Vector{}}
}

func (m *spaceModel) MaxBusy() int64 { return max(m.maxBusy, m.origin) }

func (m *spaceModel) UsedAt(t int64) resource.Vector {
	if u, ok := m.used[t]; ok && t >= m.origin {
		return u
	}
	return resource.New(len(m.capacity))
}

func (m *spaceModel) FitsAt(start int64, demand resource.Vector, duration int64) bool {
	if len(demand) != len(m.capacity) || duration <= 0 || start < m.origin {
		return false
	}
	for t := start; t < start+duration; t++ {
		sum, _ := m.UsedAt(t).Add(demand)
		if !sum.FitsWithin(m.capacity) {
			return false
		}
	}
	return true
}

// Place returns the sentinel a Space must wrap, nil on success. A demand of
// nothing occupies nothing, so it leaves maxBusy where it was.
func (m *spaceModel) Place(start int64, demand resource.Vector, duration int64) error {
	switch {
	case duration <= 0:
		return ErrBadDuration
	case start < m.origin:
		return ErrBadStart
	case len(demand) != len(m.capacity):
		return resource.ErrDimensionMismatch
	case !m.FitsAt(start, demand, duration):
		return ErrDoesNotFit
	}
	for t := start; t < start+duration; t++ {
		m.used[t], _ = m.UsedAt(t).Add(demand)
	}
	if !demand.IsZero() {
		m.maxBusy = max(m.maxBusy, start+duration)
	}
	m.front = max(m.front, start)
	return nil
}

func (m *spaceModel) EarliestStart(from int64, demand resource.Vector, duration int64) (int64, error) {
	switch {
	case len(demand) != len(m.capacity):
		return 0, resource.ErrDimensionMismatch
	case duration <= 0:
		return 0, ErrBadDuration
	case !demand.FitsWithin(m.capacity):
		return 0, ErrNeverFits
	}
	start := max(from, m.origin)
	for !m.FitsAt(start, demand, duration) {
		start++
	}
	return start, nil
}

func (m *spaceModel) Advance(to int64) {
	if to <= m.origin {
		return
	}
	for t := range m.used {
		if t < to {
			delete(m.used, t)
		}
	}
	m.origin = to
}

// fuzzOp is one decoded operation of the byte stream both targets consume.
// start is relative to the origin when the op is decoded, from two slots
// before it, so that advancing never moves the grid out of the ops' reach.
// An op with ahead >= 0 is a place in start order, whose start inOrder sets.
type fuzzOp struct {
	kind, machine int
	start, ahead  int64
	demand        resource.Vector
	duration      int64
}

// inOrder gives a place-in-start-order op its start: ahead slots past the
// latest start s has seen (or past the origin, once that has overtaken it).
// Starts drawn from 32 slots at random leave sorted runs two or three
// placements long; these ops make them as long as the stream likes.
func (op *fuzzOp) inOrder(s *Space) {
	if op.ahead >= 0 {
		op.start = max(s.front, s.origin) + op.ahead
	}
}

// nextOp decodes the five bytes at data[pos:] (missing bytes read as zero).
// One demand in sixteen has the wrong number of dimensions, and durations
// run from 0, so every argument error is reachable. Kind 1 is a place (kind
// 0) of nothing: the demand's dimensions, all zero. A first byte of 128 and
// up is a place in start order, b[1]%4 slots ahead.
func nextOp(data []byte, pos, kinds int, origin int64) fuzzOp {
	var b [5]byte
	copy(b[:], data[pos:])
	op := fuzzOp{
		kind:     int(b[0]) % kinds,
		machine:  int(b[0]) / kinds % 4, // 3 is out of range for the Multi target
		start:    origin - 2 + int64(b[1]%32),
		ahead:    -1,
		demand:   resource.Of(int64(b[2]%13), int64(b[3]%13)),
		duration: int64(b[4] % 7),
	}
	if b[2]>>4 == 15 {
		op.demand = op.demand[:1]
	}
	if op.kind == 1 {
		op.kind = 0
		clear(op.demand)
	}
	if b[0] >= 128 {
		op.kind, op.ahead = 0, int64(b[1]%4)
	}
	return op
}

// sameErr reports whether got wraps the sentinel want (both nil on success).
func sameErr(got, want error) bool {
	if want == nil {
		return got == nil
	}
	return errors.Is(got, want)
}

// compareSpace checks every read the Space offers against the model, over a
// window wider than anything the ops can touch, with the op's own arguments
// as the probe for the two searches.
func compareSpace(t *testing.T, s *Space, m *spaceModel, op fuzzOp) {
	t.Helper()
	if s.Origin() != m.origin || s.MaxBusy() != m.MaxBusy() {
		t.Fatalf("origin %d maxBusy %d, model %d %d", s.Origin(), s.MaxBusy(), m.origin, m.MaxBusy())
	}
	if s.front != m.front {
		t.Fatalf("front %d, model %d", s.front, m.front)
	}
	for tm := m.origin - 2; tm < m.origin+48; tm++ {
		got, want := s.UsedAt(tm), m.UsedAt(tm)
		if !got.Equal(want) || !got.NonNegative() || !got.FitsWithin(m.capacity) {
			t.Fatalf("UsedAt(%d) = %v, model %v, capacity %v", tm, got, want, m.capacity)
		}
		if got, want := s.FitsAt(tm, op.demand, op.duration), m.FitsAt(tm, op.demand, op.duration); got != want {
			t.Fatalf("FitsAt(%d, %v, %d) = %v, model %v", tm, op.demand, op.duration, got, want)
		}
	}
	got, gotErr := s.EarliestStart(op.start, op.demand, op.duration)
	want, wantErr := m.EarliestStart(op.start, op.demand, op.duration)
	if !sameErr(gotErr, wantErr) || got != want {
		t.Fatalf("EarliestStart(%d, %v, %d) = %d, %v; model %d, %v",
			op.start, op.demand, op.duration, got, gotErr, want, wantErr)
	}
}

// dirtySpace returns a destination for CloneInto that shares nothing with
// the source's shape: one dimension more, and a grid that is deeper or
// shallower than the source's depending on n.
func dirtySpace(t *testing.T, n int64) *Space {
	t.Helper()
	dst, err := NewSpace(resource.Of(5, 5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Place(n%3, resource.Of(4, 4, 4), 1+n*3); err != nil {
		t.Fatal(err)
	}
	dst.Advance(n % 2)
	return dst
}

// startOrderSeed is a stream that stays on FitsAt's one-row answer for as
// long as it can: twelve six-slot placements in start order (first byte
// place, from 128 up), crossed by an advance into the run and a clone onto a
// dirty destination; a place before the front and a place of nothing across
// it, neither of which may turn the one-row answer off for the in-order
// places after them; the last of those fills row 14 to capacity, and a
// place of nothing on that row reaches past MaxBusy without moving it. kinds
// is the target's number of op kinds; machine is where a Multi target plays
// it.
func startOrderSeed(kinds, machine int) []byte {
	op := func(kind int) byte { return byte(kind + kinds*machine) }
	place := byte(128 + kinds*machine) // 128/4 is a multiple of 4: the Multi target reads machine back
	var data []byte
	for i, ahead := range []byte{1, 0, 1, 2, 1, 0, 3, 1, 1, 0, 2, 1} {
		data = append(data, place, ahead, 1, 1, 6)
		switch i {
		case 5:
			data = append(data, op(2), 5, 0, 0, 0) // advance to origin+3
		case 8:
			data = append(data, op(3), 0, 0, 0, 4) // clone
		}
	}
	return append(data,
		op(0), 3, 1, 1, 2, // before the front, fits
		op(1), 3, 5, 5, 6, // nothing, from before the front to past it
		place, 1, 2, 1, 5,
		place, 0, 1, 1, 4, // row 14 now holds (8, 7)
		place, 0, 2, 0, 2, // (2, 0) at 14: the row is full
		place, 0, 0, 0, 6, // nothing at 14 until 20, past MaxBusy 19
	)
}

// FuzzSpaceOps drives a Space and the map-backed model with one stream of
// place / advance / clone operations and compares, after every one, the
// error class it returned and everything the Space can be asked.
func FuzzSpaceOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 1, 1, 2, 3, 2, 4})
	f.Add([]byte{3, 0, 5, 1, 0, 9, 9, 9})
	f.Add([]byte{})
	// Place, clone onto a dirty destination, advance past the horizon, place
	// again into the recycled grid, place nothing over it.
	f.Add([]byte{0, 2, 3, 3, 4, 3, 9, 0, 0, 0, 4, 5, 0, 0, 0, 0, 3, 6, 2, 3, 1, 3, 6, 2, 3})
	// Saturated windows, which EarliestStart crosses from their last
	// conflicting slot: twelve full slots probed with a five-slot task from
	// before them; and, after an advance, two full stretches around a slot
	// with room for the probe's demand but not for its two-slot duration.
	f.Add([]byte{0, 4, 10, 7, 6, 0, 10, 10, 7, 6, 0, 2, 3, 2, 5})
	f.Add([]byte{0, 4, 10, 7, 6, 0, 10, 8, 5, 1, 0, 11, 10, 7, 6, 2, 3, 0, 0, 0, 1, 2, 2, 2, 2})
	f.Add(startOrderSeed(5, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		capacity := resource.Of(10, 7)
		s, err := NewSpace(capacity)
		if err != nil {
			t.Fatal(err)
		}
		m := newSpaceModel(capacity)
		for pos := 0; pos < len(data); pos += 5 {
			op := nextOp(data, pos, 5, s.Origin())
			op.inOrder(s)
			switch op.kind {
			case 0:
				got, want := s.Place(op.start, op.demand, op.duration), m.Place(op.start, op.demand, op.duration)
				if !sameErr(got, want) {
					t.Fatalf("Place(%d, %v, %d) = %v, model %v", op.start, op.demand, op.duration, got, want)
				}
			case 2:
				s.Advance(op.start)
				m.Advance(op.start)
			case 3:
				// Carry on with a clone made onto a dirty destination, which
				// must not notice what happens to the source afterwards.
				src := s
				s = src.CloneInto(dirtySpace(t, int64(op.duration)))
				if err := src.Place(src.MaxBusy(), capacity, 1); err != nil {
					t.Fatal(err)
				}
			case 4:
				// Past the last tracked slot: the whole grid is dropped.
				to := s.MaxBusy() + op.duration%3
				s.Advance(to)
				m.Advance(to)
			}
			compareSpace(t, s, m, op)
		}
	})
}

// FuzzMultiOps is FuzzSpaceOps for a three-machine Multi with unequal
// machines: one model per machine.
func FuzzMultiOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 2, 5, 1, 2, 3, 2, 10, 0, 6, 6, 3, 3, 4, 0, 0, 0})
	f.Add([]byte{15, 0, 1, 1, 1, 1, 0, 1, 1, 1, 2, 40, 0, 0, 0})
	f.Add([]byte{})
	// The start-order stream on machine 0, then on machine 1 of the result.
	f.Add(append(startOrderSeed(4, 0), startOrderSeed(4, 1)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec := Spec{
			{Name: "a", Capacity: resource.Of(10, 7)},
			{Name: "b", Capacity: resource.Of(6, 6)},
			{Name: "c", Capacity: resource.Of(12, 3)},
		}
		mu, err := NewMulti(spec)
		if err != nil {
			t.Fatal(err)
		}
		models := make([]*spaceModel, len(spec))
		for i, mc := range spec {
			models[i] = newSpaceModel(mc.Capacity)
		}
		for pos := 0; pos < len(data); pos += 5 {
			op := nextOp(data, pos, 4, mu.Origin())
			inRange := op.machine < len(models)
			if inRange {
				op.inOrder(mu.Machine(op.machine))
			}
			switch op.kind {
			case 0:
				got, want := mu.Place(op.machine, op.start, op.demand, op.duration), ErrMachineRange
				if inRange {
					want = models[op.machine].Place(op.start, op.demand, op.duration)
				}
				if !sameErr(got, want) {
					t.Fatalf("Place on machine %d (%d, %v, %d) = %v, model %v",
						op.machine, op.start, op.demand, op.duration, got, want)
				}
			case 2:
				mu.Advance(op.start)
				for _, m := range models {
					m.Advance(op.start)
				}
			case 3:
				dirty, err := NewMulti(Uniform(int(op.duration%5)+1, resource.Of(5, 5, 5)))
				if err != nil {
					t.Fatal(err)
				}
				if err := dirty.Place(0, 0, resource.Of(4, 4, 4), 1+op.duration*3); err != nil {
					t.Fatal(err)
				}
				mu = mu.CloneInto(dirty)
			}
			for i, m := range models {
				compareSpace(t, mu.Machine(i), m, op)
			}
		}
	})
}
