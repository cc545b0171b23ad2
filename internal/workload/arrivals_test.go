package workload

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewArrivalProcessValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  ArrivalConfig
		ok   bool
	}{
		{"poisson", ArrivalConfig{Kind: ArrivalPoisson, Mean: 10}, true},
		{"gamma bursty", ArrivalConfig{Kind: ArrivalGamma, Mean: 10, Shape: 0.5}, true},
		{"weibull default shape", ArrivalConfig{Kind: ArrivalWeibull, Mean: 3}, true},
		{"zero mean", ArrivalConfig{Kind: ArrivalPoisson, Mean: 0}, false},
		{"negative mean", ArrivalConfig{Kind: ArrivalGamma, Mean: -4}, false},
		{"negative shape", ArrivalConfig{Kind: ArrivalWeibull, Mean: 4, Shape: -1}, false},
		{"NaN mean", ArrivalConfig{Kind: ArrivalPoisson, Mean: math.NaN()}, false},
		{"infinite mean", ArrivalConfig{Kind: ArrivalPoisson, Mean: math.Inf(1)}, false},
		{"negative infinite mean", ArrivalConfig{Kind: ArrivalGamma, Mean: math.Inf(-1)}, false},
		{"largest finite mean", ArrivalConfig{Kind: ArrivalPoisson, Mean: math.MaxFloat64}, true},
		{"NaN shape", ArrivalConfig{Kind: ArrivalGamma, Mean: 100, Shape: math.NaN()}, false},
		{"infinite shape", ArrivalConfig{Kind: ArrivalWeibull, Mean: 100, Shape: math.Inf(1)}, false},
		{"weibull scale underflows to 0", ArrivalConfig{Kind: ArrivalWeibull, Mean: 400, Shape: 0.005}, false},
		{"weibull small shape, finite scale", ArrivalConfig{Kind: ArrivalWeibull, Mean: 400, Shape: 0.01}, true},
		{"unknown kind", ArrivalConfig{Kind: "lognormal", Mean: 4}, false},
		{"empty kind", ArrivalConfig{Mean: 4}, false},
	}
	for _, tc := range cases {
		p, err := NewArrivalProcess(tc.cfg)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: config %+v accepted", tc.name, tc.cfg)
		}
		if tc.ok && p.Config().Shape == 0 {
			t.Errorf("%s: shape not normalized: %+v", tc.name, p.Config())
		}
	}
}

// TestAdvanceProbClosedForms checks AdvanceProb, the chance that a gap
// reaches half a slot, against the tails that have closed forms: Q(1/2, x)
// = erfc(√x), Q(1, x) = e^-x (the exponential, as poisson), Q(3, x) =
// e^-x (1 + x + x²/2), and Weibull's exp(-(x/scale)^shape).
func TestAdvanceProbClosedForms(t *testing.T) {
	weibull := func(mean, shape float64) float64 {
		return math.Exp(-math.Pow(0.5*math.Gamma(1+1/shape)/mean, shape))
	}
	for _, mean := range []float64{0.01, 0.25, 0.5, 3, 60, 1600} {
		for _, tc := range []struct {
			cfg  ArrivalConfig
			want float64
		}{
			{ArrivalConfig{Kind: ArrivalGamma, Mean: mean, Shape: 0.5}, math.Erfc(math.Sqrt(0.25 / mean))},
			{ArrivalConfig{Kind: ArrivalGamma, Mean: mean, Shape: 1}, math.Exp(-0.5 / mean)},
			{ArrivalConfig{Kind: ArrivalPoisson, Mean: mean}, math.Exp(-0.5 / mean)},
			{ArrivalConfig{Kind: ArrivalGamma, Mean: mean, Shape: 3}, math.Exp(-1.5/mean) * (1 + 1.5/mean + 1.125/(mean*mean))},
			{ArrivalConfig{Kind: ArrivalWeibull, Mean: mean, Shape: 0.7}, weibull(mean, 0.7)},
		} {
			p, err := NewArrivalProcess(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Absolute where the tail is tiny: 1 - P cancels there, far
			// below the 2^-24 that serving compares it with.
			if got := p.AdvanceProb(); math.Abs(got-tc.want) > 1e-9*tc.want+1e-12 {
				t.Errorf("%+v: AdvanceProb %g, want %g", tc.cfg, got, tc.want)
			}
		}
	}
	tiny, err := NewArrivalProcess(ArrivalConfig{Kind: ArrivalGamma, Mean: 400, Shape: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	if got := tiny.AdvanceProb(); got != 0 {
		t.Errorf("gamma shape 1e-300: AdvanceProb %g, want 0 (every gap rounds to zero)", got)
	}
}

// TestArrivalDeterminism is the property the serving replay depends on:
// the same seed must yield the same gap sequence, draw for draw.
func TestArrivalDeterminism(t *testing.T) {
	for _, cfg := range []ArrivalConfig{
		{Kind: ArrivalPoisson, Mean: 7},
		{Kind: ArrivalGamma, Mean: 12, Shape: 0.4},
		{Kind: ArrivalGamma, Mean: 12, Shape: 3},
		{Kind: ArrivalWeibull, Mean: 9, Shape: 0.7},
	} {
		p, err := NewArrivalProcess(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		draw := func(seed int64) []int64 {
			r := rand.New(rand.NewSource(seed))
			gaps := make([]int64, 200)
			for i := range gaps {
				gaps[i] = p.NextGap(r)
			}
			return gaps
		}
		a, b := draw(42), draw(42)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: draw %d differs across identical seeds: %d vs %d", cfg.Kind, i, a[i], b[i])
			}
		}
		c := draw(43)
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: different seeds produced identical 200-gap sequences", cfg.Kind)
		}
	}
}

// TestArrivalMeanConverges checks the empirical mean of many draws lands
// near the configured mean for every distribution, which pins both the
// parameterization (scale vs rate mix-ups) and the sampling algorithms.
func TestArrivalMeanConverges(t *testing.T) {
	const n = 40000
	for _, cfg := range []ArrivalConfig{
		{Kind: ArrivalPoisson, Mean: 20},
		{Kind: ArrivalGamma, Mean: 20, Shape: 0.5},
		{Kind: ArrivalGamma, Mean: 20, Shape: 4},
		{Kind: ArrivalWeibull, Mean: 20, Shape: 0.8},
		{Kind: ArrivalWeibull, Mean: 20, Shape: 2},
	} {
		p, err := NewArrivalProcess(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		r := rand.New(rand.NewSource(1))
		var sum int64
		for i := 0; i < n; i++ {
			sum += p.NextGap(r)
		}
		got := float64(sum) / n
		// Integer rounding and sampling noise both stay well inside 10%
		// at this sample size for means of 20 slots.
		if math.Abs(got-cfg.Mean) > 0.1*cfg.Mean {
			t.Errorf("%s shape=%v: empirical mean %.2f, want %.0f±%.0f",
				cfg.Kind, cfg.Shape, got, cfg.Mean, 0.1*cfg.Mean)
		}
	}
}

// TestArrivalBurstiness verifies shape < 1 actually over-disperses: the
// bursty gamma's gap variance must exceed the Poisson's at equal mean,
// and bursts must put several arrivals on the same slot (zero gaps).
func TestArrivalBurstiness(t *testing.T) {
	const n = 20000
	variance := func(cfg ArrivalConfig) (float64, int) {
		p, err := NewArrivalProcess(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		r := rand.New(rand.NewSource(7))
		gaps := make([]float64, n)
		var mean float64
		zeros := 0
		for i := range gaps {
			g := float64(p.NextGap(r))
			gaps[i] = g
			mean += g
			if g == 0 {
				zeros++
			}
		}
		mean /= n
		var v float64
		for _, g := range gaps {
			v += (g - mean) * (g - mean)
		}
		return v / n, zeros
	}
	poissonVar, _ := variance(ArrivalConfig{Kind: ArrivalPoisson, Mean: 10})
	burstyVar, burstyZeros := variance(ArrivalConfig{Kind: ArrivalGamma, Mean: 10, Shape: 0.3})
	if burstyVar < 1.5*poissonVar {
		t.Errorf("gamma(0.3) variance %.1f not over-dispersed vs poisson %.1f", burstyVar, poissonVar)
	}
	if burstyZeros == 0 {
		t.Error("bursty process produced no same-slot arrivals in 20000 draws")
	}
}

// TestNextGapSaturates: a gap past the int64 range comes back as
// math.MaxInt64, never as a wrapped negative number.
func TestNextGapSaturates(t *testing.T) {
	for _, cfg := range []ArrivalConfig{
		{Kind: ArrivalPoisson, Mean: 1e19},
		{Kind: ArrivalPoisson, Mean: math.MaxFloat64},
		{Kind: ArrivalGamma, Mean: 1e300, Shape: 0.5},
		{Kind: ArrivalWeibull, Mean: 1e300, Shape: 0.3},
	} {
		p, err := NewArrivalProcess(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		r := rand.New(rand.NewSource(1))
		saturated := 0
		for i := 0; i < 200; i++ {
			g := p.NextGap(r)
			if g < 0 {
				t.Fatalf("%+v: draw %d is the negative gap %d", cfg, i, g)
			}
			if g == math.MaxInt64 {
				saturated++
			}
		}
		if saturated == 0 {
			t.Errorf("%+v: no draw of 200 reached math.MaxInt64", cfg)
		}
	}
}

// FuzzArrivalProcess: whatever the kind, mean and shape, either the config
// is rejected or every gap drawn from it is >= 0 (and the draws return).
func FuzzArrivalProcess(f *testing.F) {
	f.Add(uint8(0), 1e19, 0.0, int64(1))
	f.Add(uint8(0), math.NaN(), 0.0, int64(1))
	f.Add(uint8(1), 100.0, math.NaN(), int64(2))
	f.Add(uint8(1), 12.0, 0.4, int64(3))
	f.Add(uint8(2), 400.0, 0.005, int64(4))
	f.Add(uint8(2), 9.0, 0.7, int64(5))
	f.Add(uint8(3), 4.0, 1.0, int64(6))
	kinds := []ArrivalKind{ArrivalPoisson, ArrivalGamma, ArrivalWeibull, "lognormal"}
	f.Fuzz(func(t *testing.T, kind uint8, mean, shape float64, seed int64) {
		cfg := ArrivalConfig{Kind: kinds[int(kind)%len(kinds)], Mean: mean, Shape: shape}
		p, err := NewArrivalProcess(cfg)
		if err != nil {
			return
		}
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 64; i++ {
			if g := p.NextGap(r); g < 0 {
				t.Fatalf("%+v: draw %d is the negative gap %d", cfg, i, g)
			}
		}
	})
}

func TestArrivalGapsNonNegative(t *testing.T) {
	for _, cfg := range []ArrivalConfig{
		{Kind: ArrivalPoisson, Mean: 0.1},
		{Kind: ArrivalGamma, Mean: 0.5, Shape: 0.1},
		{Kind: ArrivalWeibull, Mean: 0.5, Shape: 0.2},
	} {
		p, err := NewArrivalProcess(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		r := rand.New(rand.NewSource(3))
		for i := 0; i < 5000; i++ {
			if g := p.NextGap(r); g < 0 {
				t.Fatalf("%s: negative gap %d", cfg.Kind, g)
			}
		}
	}
}
