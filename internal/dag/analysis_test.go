package dag

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spear/internal/resource"
)

func TestTLevels(t *testing.T) {
	g := diamond(t)
	// a starts at 0; b and c after a (2); d after c (2+5=7).
	tl := g.TLevels()
	want := []int64{0, 2, 2, 7}
	for i := range want {
		if tl[i] != want[i] {
			t.Errorf("TLevel[%d] = %d, want %d", i, tl[i], want[i])
		}
	}
}

func TestLevels(t *testing.T) {
	g := diamond(t)
	if g.NumLevels() != 3 {
		t.Errorf("NumLevels = %d, want 3", g.NumLevels())
	}
}

func TestPropertyTLevelPlusBLevelBounded(t *testing.T) {
	// For every task: tlevel(v) + blevel(v) <= critical path, with equality
	// somewhere (the critical path itself).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		b := NewBuilder(1)
		ids := make([]TaskID, n)
		for i := 0; i < n; i++ {
			ids[i] = b.AddTask("t", r.Int63n(9)+1, resource.Of(1))
		}
		for i := 1; i < n; i++ {
			for k := 0; k < r.Intn(3); k++ {
				b.AddDep(ids[r.Intn(i)], ids[i])
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		cp := g.CriticalPath()
		tl := g.TLevels()
		tight := false
		for v := 0; v < n; v++ {
			total := tl[v] + g.BLevel(TaskID(v))
			if total > cp {
				return false
			}
			if total == cp {
				tight = true
			}
		}
		return tight
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertySlackNonNegative(t *testing.T) {
	// Slack is how far a task can slip without stretching the critical
	// path: CriticalPath - TLevel - BLevel. It is never negative.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		b := NewBuilder(1)
		ids := make([]TaskID, n)
		for i := 0; i < n; i++ {
			ids[i] = b.AddTask("t", r.Int63n(5)+1, resource.Of(1))
		}
		for i := 1; i < n; i++ {
			b.AddDep(ids[r.Intn(i)], ids[i])
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		cp := g.CriticalPath()
		tl := g.TLevels()
		for v := 0; v < n; v++ {
			if cp-tl[v]-g.BLevel(TaskID(v)) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
