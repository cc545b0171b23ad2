package cluster

import (
	"fmt"
	"testing"

	"spear/internal/resource"
)

func benchSpace(b *testing.B) *Space {
	b.Helper()
	s, err := NewSpace(resource.Of(1000, 1000))
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkPlace places one 20-slot task into an emptied space: the grid
// grows inside its spare capacity and the rows are written.
func BenchmarkPlace(b *testing.B) {
	s := benchSpace(b)
	demand := resource.Of(250, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Place(int64(i%64), demand, 20); err != nil {
			b.Fatal(err)
		}
		*s = Space{capacity: s.capacity, used: s.used[:0]} // empty, keeping the grid's storage
	}
}

// BenchmarkSpaceAdvance is the steady state of a serving grid: the clock
// moves one slot, dropping the oldest of 20 tracked slots, and a placement
// reopens one at the far end inside the array's spare capacity.
func BenchmarkSpaceAdvance(b *testing.B) {
	s := benchSpace(b)
	demand := resource.Of(250, 400)
	if err := s.Place(0, demand, 20); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for now := int64(1); now <= int64(b.N); now++ {
		s.Advance(now)
		if err := s.Place(now+19, demand, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitsAt(b *testing.B) {
	s := benchSpace(b)
	for t := int64(0); t < 100; t += 10 {
		if err := s.Place(t, resource.Of(700, 700), 10); err != nil {
			b.Fatal(err)
		}
	}
	demand := resource.Of(400, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FitsAt(int64(i%110), demand, 15)
	}
}

// benchFitsAt probes a grid kept busy for 300 slots by forty placements in
// start order, the last of them at slot 39, with a task that fits: a probe
// that scans has to read all of the task's rows.
func benchFitsAt(b *testing.B, start int64) {
	s := benchSpace(b)
	for t := int64(0); t < 40; t++ {
		if err := s.Place(t, resource.Of(20, 20), 300); err != nil {
			b.Fatal(err)
		}
	}
	demand := resource.Of(100, 100)
	for _, duration := range []int64{1, 20, 200} {
		b.Run(fmt.Sprintf("slots=%d", duration), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !s.FitsAt(start, demand, duration) {
					b.Fatal("the probe must fit")
				}
			}
		})
	}
}

// BenchmarkFitsAtSorted probes at the latest start, as an episode and
// Validate do: one row answers, so the cost must not grow with the duration.
func BenchmarkFitsAtSorted(b *testing.B) { benchFitsAt(b, 39) }

// BenchmarkFitsAtUnsorted probes one slot before the latest start, as serve
// does when it packs a plan into the shared grid: the full scan.
func BenchmarkFitsAtUnsorted(b *testing.B) { benchFitsAt(b, 38) }

func BenchmarkEarliestStart(b *testing.B) {
	s := benchSpace(b)
	for t := int64(0); t < 200; t += 10 {
		if err := s.Place(t, resource.Of(800, 800), 10); err != nil {
			b.Fatal(err)
		}
	}
	demand := resource.Of(300, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.EarliestStart(0, demand, 25); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEarliestStartAny scans busy grids of 4 to 64 machines, every one
// holding the same twenty placements, so each machine's probe walks past the
// same conflicts: ns/op divided by the machine count must stay flat.
func BenchmarkEarliestStartAny(b *testing.B) {
	for _, n := range []int{4, 8, 16, 64} {
		b.Run(fmt.Sprintf("machines=%d", n), func(b *testing.B) {
			m, err := NewMulti(Uniform(n, resource.Of(1000, 1000)))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				for t := int64(0); t < 200; t += 10 {
					if err := m.Place(i, t, resource.Of(800, 800), 10); err != nil {
						b.Fatal(err)
					}
				}
			}
			demand := resource.Of(300, 300)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.EarliestStartAny(0, demand, 25); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/machine")
		})
	}
}

func BenchmarkClone(b *testing.B) {
	s := benchSpace(b)
	for t := int64(0); t < 500; t += 5 {
		if err := s.Place(t, resource.Of(100, 100), 5); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Clone()
	}
}
