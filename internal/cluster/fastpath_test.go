package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"spear/internal/resource"
)

func TestCloneIntoReusedDestination(t *testing.T) {
	s := newSpace(t, 10, 20)
	if err := s.Place(2, resource.Of(5, 5), 3); err != nil {
		t.Fatal(err)
	}
	s.Advance(1)

	// A dirty destination with a different shape and deeper grid.
	dst := newSpace(t, 7, 7)
	if err := dst.Place(0, resource.Of(3, 3), 9); err != nil {
		t.Fatal(err)
	}
	out := s.CloneInto(dst)
	if out != dst {
		t.Fatal("CloneInto did not return the destination")
	}
	if !out.Capacity().Equal(s.Capacity()) || out.Origin() != s.Origin() || out.MaxBusy() != s.MaxBusy() {
		t.Fatalf("clone header: cap %v origin %d maxBusy %d", out.Capacity(), out.Origin(), out.MaxBusy())
	}
	for tm := int64(0); tm < 8; tm++ {
		if got, want := out.UsedAt(tm), s.UsedAt(tm); !got.Equal(want) {
			t.Errorf("UsedAt(%d) = %v, want %v", tm, got, want)
		}
	}
	// Independence: mutating the clone must not leak into the source.
	if err := out.Place(3, resource.Of(5, 5), 1); err != nil {
		t.Fatal(err)
	}
	if got := s.UsedAt(3); !got.Equal(resource.Of(5, 5)) {
		t.Errorf("mutating clone changed source at 3: %v", got)
	}
}

// TestFillOccupancyMatchesOccupancyImage checks a fill from a later origin
// overwrites whatever out held and clamps a request for more dims than the
// cluster has.
func TestFillOccupancyMatchesOccupancyImage(t *testing.T) {
	m, err := NewMulti(Single(resource.Of(10, 20)))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Place(0, 2, resource.Of(5, 5), 2); err != nil {
		t.Fatal(err)
	}
	m.Advance(1)
	const horizon = 4
	want := []float64{0, 0.5, 0.5, 0, 0, 0.25, 0.25, 0} // slots 1..4
	out := make([]float64, 2*horizon)
	for i := range out {
		out[i] = -1 // stale garbage the call must overwrite
	}
	m.FillOccupancy(1, horizon, 2, out)
	if !slices.Equal(out, want) {
		t.Errorf("fill = %v, want image %v", out, want)
	}
	// Requesting more dims than the cluster has must clamp, not panic.
	wide := make([]float64, 3*horizon)
	m.FillOccupancy(1, horizon, 3, wide)
	if want3 := append(want, make([]float64, horizon)...); !slices.Equal(wide, want3) {
		t.Errorf("3-dim fill = %v, want %v", wide, want3)
	}
}

func TestAdvanceRecyclesSlotStorage(t *testing.T) {
	// A warm place/advance loop must not allocate: Advance parks dropped
	// slot vectors at the tail and slot() reuses them.
	s := newSpace(t, 10, 10)
	now := int64(0)
	demand := resource.Of(4, 4)
	step := func() {
		if err := s.Place(now, demand, 3); err != nil {
			t.Fatal(err)
		}
		now += 2
		s.Advance(now)
	}
	for i := 0; i < 8; i++ {
		step() // warm up the grid
	}
	allocs := testing.AllocsPerRun(50, step)
	if allocs != 0 {
		t.Errorf("place/advance loop allocates %.1f times per run, want 0", allocs)
	}
}

func TestAdvanceKeepsOccupancyCorrect(t *testing.T) {
	// Property check: after the rotation-based Advance, occupancy reads must
	// match a freshly rebuilt space.
	rng := rand.New(rand.NewSource(41))
	s := newSpace(t, 10, 10)
	type placement struct {
		start, dur int64
		demand     resource.Vector
	}
	var live []placement
	now := int64(0)
	for i := 0; i < 200; i++ {
		d := resource.Of(int64(1+rng.Intn(3)), int64(1+rng.Intn(3)))
		dur := int64(1 + rng.Intn(4))
		start, err := s.EarliestStart(now, d, dur)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Place(start, d, dur); err != nil {
			t.Fatal(err)
		}
		live = append(live, placement{start, dur, d})
		if rng.Intn(3) == 0 {
			now++
			s.Advance(now)
		}
		// Compare against a rebuild at a few sample times.
		for _, tm := range []int64{now, now + 1, now + 3, now + 7} {
			want := resource.New(2)
			for _, p := range live {
				if p.start <= tm && tm < p.start+p.dur {
					for dd := range want {
						want[dd] += p.demand[dd]
					}
				}
			}
			if got := s.UsedAt(tm); !got.Equal(want) {
				t.Fatalf("iteration %d: UsedAt(%d) = %v, want %v", i, tm, got, want)
			}
		}
	}
}
