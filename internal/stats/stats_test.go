package stats

import (
	"errors"
	"math"
	"testing"
)

func TestMean(t *testing.T) {
	got, err := Mean([]int64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if _, err := Mean([]float64{}); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty err = %v", err)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []int64{10, 20, 30, 40, 50}
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{0, 10}, {25, 20}, {50, 30}, {75, 40}, {100, 50}, {90, 46},
	} {
		got, err := Percentile(xs, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("P%.0f = %v, want %v", tc.p, got, tc.want)
		}
	}

	med, err := Median([]int64{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if med != 2 {
		t.Errorf("Median = %v, want 2", med)
	}

	if _, err := Percentile([]int64{1}, -1); err == nil {
		t.Error("negative percentile accepted")
	}
	if _, err := Percentile([]int64{}, 50); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty err = %v", err)
	}
	one, err := Percentile([]int64{7}, 99)
	if err != nil || one != 7 {
		t.Errorf("single-element percentile = %v, %v", one, err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []int{5, -2, 9, 0}
	min, err := Min(xs)
	if err != nil || min != -2 {
		t.Errorf("Min = %v, %v", min, err)
	}
	max, err := Max(xs)
	if err != nil || max != 9 {
		t.Errorf("Max = %v, %v", max, err)
	}
	if _, err := Min([]int{}); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty Min err = %v", err)
	}
	if _, err := Max([]int{}); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty Max err = %v", err)
	}
}

func TestJainFairness(t *testing.T) {
	// Equal allocations are perfectly fair.
	if got, err := JainFairness([]float64{5, 5, 5, 5}); err != nil || math.Abs(got-1) > 1e-12 {
		t.Errorf("equal shares = %v, %v; want 1", got, err)
	}
	// One entity hogging everything scores 1/n.
	if got, err := JainFairness([]float64{10, 0, 0, 0}); err != nil || math.Abs(got-0.25) > 1e-12 {
		t.Errorf("single hog = %v, %v; want 0.25", got, err)
	}
	// Hand-computed mixed case: xs = [1, 2, 3] -> 36 / (3 * 14) = 6/7.
	if got, err := JainFairness([]int64{1, 2, 3}); err != nil || math.Abs(got-6.0/7) > 1e-12 {
		t.Errorf("mixed = %v, %v; want 6/7", got, err)
	}
	// Scale invariance: k*xs scores the same as xs.
	a, _ := JainFairness([]float64{1, 2, 3, 4})
	b, _ := JainFairness([]float64{10, 20, 30, 40})
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("not scale invariant: %v vs %v", a, b)
	}
	// All-zero sample is fair by convention; empty errors.
	if got, err := JainFairness([]float64{0, 0}); err != nil || got != 1 {
		t.Errorf("all-zero = %v, %v; want 1", got, err)
	}
	if _, err := JainFairness([]float64{}); err == nil {
		t.Error("empty sample accepted")
	}
	// A single entity is trivially fair.
	if got, err := JainFairness([]int{7}); err != nil || got != 1 {
		t.Errorf("singleton = %v, %v; want 1", got, err)
	}
}
