package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// This file implements the arrival processes of the online serving mode:
// how inter-arrival gaps between consecutive jobs of one client class are
// drawn. Poisson arrivals (exponential gaps) model steady open-loop
// traffic; Gamma and Weibull gaps with shape < 1 are over-dispersed —
// bursts of near-simultaneous arrivals separated by long quiet periods —
// which is how production cluster traces actually behave (cf. Decima's
// streaming-arrival setting, PAPERS.md). All draws consume only the
// caller's seeded *rand.Rand, so a serving run replays bit-identically.

// ArrivalKind names an inter-arrival distribution.
type ArrivalKind string

// The supported arrival processes.
const (
	// ArrivalPoisson draws exponential gaps: memoryless steady traffic.
	ArrivalPoisson ArrivalKind = "poisson"
	// ArrivalGamma draws Gamma(shape, mean/shape) gaps; shape < 1 is bursty.
	ArrivalGamma ArrivalKind = "gamma"
	// ArrivalWeibull draws Weibull gaps with the given shape; shape < 1 has
	// a heavy tail of long gaps between clusters of short ones.
	ArrivalWeibull ArrivalKind = "weibull"
)

// ArrivalConfig parameterizes one client class's arrival process.
type ArrivalConfig struct {
	// Kind selects the distribution.
	Kind ArrivalKind `json:"kind"`
	// Mean is the mean inter-arrival gap in time slots. Must be positive
	// and finite.
	Mean float64 `json:"meanSlots"`
	// Shape is the burstiness parameter for gamma/weibull: 1 degenerates to
	// the exponential, values below 1 produce bursts. Must be positive and
	// finite; zero defaults to 1. Ignored for poisson. A weibull shape so
	// small that mean / Gamma(1 + 1/shape) is not a positive finite scale
	// (below about 0.0058) is rejected too.
	Shape float64 `json:"shape,omitempty"`
}

// ArrivalProcess draws inter-arrival gaps for one client class.
type ArrivalProcess struct {
	cfg ArrivalConfig
	// weibullScale caches mean / Gamma(1 + 1/shape) so NextGap hits the
	// slow math.Gamma only once.
	weibullScale float64
}

// NewArrivalProcess validates cfg and returns the process.
func NewArrivalProcess(cfg ArrivalConfig) (*ArrivalProcess, error) {
	if !positiveFinite(cfg.Mean) {
		return nil, fmt.Errorf("workload: arrival mean %v must be positive and finite", cfg.Mean)
	}
	if cfg.Shape == 0 { // zero is the unset sentinel, not a measurement
		cfg.Shape = 1
	}
	if !positiveFinite(cfg.Shape) {
		return nil, fmt.Errorf("workload: arrival shape %v must be positive and finite", cfg.Shape)
	}
	p := &ArrivalProcess{cfg: cfg}
	switch cfg.Kind {
	case ArrivalPoisson:
	case ArrivalGamma:
	case ArrivalWeibull:
		p.weibullScale = cfg.Mean / math.Gamma(1+1/cfg.Shape)
		if !positiveFinite(p.weibullScale) {
			return nil, fmt.Errorf("workload: weibull shape %v with mean %v gives scale %v, not a positive finite one",
				cfg.Shape, cfg.Mean, p.weibullScale)
		}
	default:
		return nil, fmt.Errorf("workload: unknown arrival kind %q (want poisson, gamma or weibull)", cfg.Kind)
	}
	return p, nil
}

// AdvanceProb returns the probability that NextGap draws a gap of at least
// one slot, from the distribution alone: a gap under half a slot rounds to
// zero, so a burst lands 1/AdvanceProb arrivals on one slot on average.
func (p *ArrivalProcess) AdvanceProb() float64 {
	switch a, m := p.cfg.Shape, p.cfg.Mean; p.cfg.Kind {
	case ArrivalGamma:
		return gammaQ(a, a/(2*m), math.Log(a)-math.Log(2*m))
	case ArrivalWeibull:
		return math.Exp(-math.Pow(0.5/p.weibullScale, a))
	default: // ArrivalPoisson
		return math.Exp(-0.5 / m)
	}
}

// gammaQ returns the probability that a Gamma(a, 1) variate reaches x, given
// lx = ln x (which stays finite when x underflows), as 1 - P(a, x) with P
// summed by its power series. The subtraction costs precision only where
// the result is far below any threshold it is compared with; the 1e7-term
// cap binds only for shapes far beyond any arrival process's.
func gammaQ(a, x, lx float64) float64 {
	lg, _ := math.Lgamma(a + 1)
	sum, term := 1.0, 1.0
	for n := 1.0; term > sum*1e-17 && n < 1e7; n++ {
		term = float64(term * (x / (a + n)))
		sum += term
	}
	// P = x^a e^-x / Γ(a+1) · sum, in logs: a sum that overflowed means a
	// tail below any float64, so Q clamps to 0 rather than turning NaN.
	return max(0, 1-math.Exp(float64(a*lx)-x-lg+math.Log(sum)))
}

// positiveFinite reports whether x is in (0, +Inf): false for NaN.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Config returns the process's (normalized) configuration.
func (p *ArrivalProcess) Config() ArrivalConfig { return p.cfg }

// NextGap draws the next inter-arrival gap in whole slots (>= 0: several
// jobs of a burst can land on the same slot), consuming only r. A gap too
// large for an int64 comes back as math.MaxInt64.
func (p *ArrivalProcess) NextGap(r *rand.Rand) int64 {
	var gap float64
	switch p.cfg.Kind {
	case ArrivalGamma:
		gap = gammaDraw(r, p.cfg.Shape) * p.cfg.Mean / p.cfg.Shape
	case ArrivalWeibull:
		gap = p.weibullScale * math.Pow(exponentialDraw(r), 1/p.cfg.Shape)
	default: // ArrivalPoisson
		gap = p.cfg.Mean * exponentialDraw(r)
	}
	switch {
	case gap < 0 || math.IsNaN(gap):
		return 0
	case gap+0.5 >= math.MaxInt64: // 2⁶³, the first float64 past the int64 range
		return math.MaxInt64
	}
	return int64(gap + 0.5)
}

// exponentialDraw returns a unit-mean exponential variate. 1-U keeps the
// argument of Log in (0, 1], so the result is finite and non-negative.
func exponentialDraw(r *rand.Rand) float64 {
	return -math.Log(1 - float64(r.Float64())) // float64 rounds Float64's scaling: no fused multiply-add
}

// gammaDraw returns a Gamma(shape, 1) variate via Marsaglia-Tsang squeeze
// for shape >= 1 and the Stuart boost for shape < 1.
func gammaDraw(r *rand.Rand, shape float64) float64 {
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a) for a < 1.
		u := 1 - float64(r.Float64()) // (0, 1]: U^(1/a) stays positive
		return gammaDraw(r, shape+1) * math.Pow(u, 1/shape)
	}
	// Each float64(...) below rounds a product before it is added to, so
	// that no platform fuses the two into one multiply-add.
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v)
		u := 1 - float64(r.Float64())
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return d * v
		}
	}
}
