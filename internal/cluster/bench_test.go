package cluster

import (
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

func BenchmarkPlaceRemove(b *testing.B) {
	s := benchSpace(b)
	demand := resource.Of(250, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := int64(i % 64)
		if err := s.Place(start, demand, 20); err != nil {
			b.Fatal(err)
		}
		if err := s.Remove(start, demand, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpaceAdvance is the steady state of an episode's grid: the clock
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
