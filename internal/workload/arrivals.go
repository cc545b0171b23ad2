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
	// Mean is the mean inter-arrival gap in time slots. Must be positive.
	Mean float64 `json:"meanSlots"`
	// Shape is the burstiness parameter for gamma/weibull: 1 degenerates to
	// the exponential, values below 1 produce bursts. Ignored for poisson;
	// zero defaults to 1.
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
	if cfg.Mean <= 0 {
		return nil, fmt.Errorf("workload: arrival mean %v must be positive", cfg.Mean)
	}
	if cfg.Shape == 0 { // zero is the unset sentinel, not a measurement
		cfg.Shape = 1
	}
	if cfg.Shape < 0 {
		return nil, fmt.Errorf("workload: arrival shape %v must be positive", cfg.Shape)
	}
	p := &ArrivalProcess{cfg: cfg}
	switch cfg.Kind {
	case ArrivalPoisson:
	case ArrivalGamma:
	case ArrivalWeibull:
		p.weibullScale = cfg.Mean / math.Gamma(1+1/cfg.Shape)
	default:
		return nil, fmt.Errorf("workload: unknown arrival kind %q (want poisson, gamma or weibull)", cfg.Kind)
	}
	return p, nil
}

// Config returns the process's (normalized) configuration.
func (p *ArrivalProcess) Config() ArrivalConfig { return p.cfg }

// NextGap draws the next inter-arrival gap in whole slots (>= 0: several
// jobs of a burst can land on the same slot), consuming only r.
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
	if gap < 0 || math.IsNaN(gap) {
		return 0
	}
	return int64(gap + 0.5)
}

// exponentialDraw returns a unit-mean exponential variate. 1-U keeps the
// argument of Log in (0, 1], so the result is finite and non-negative.
func exponentialDraw(r *rand.Rand) float64 {
	return -math.Log(1 - r.Float64())
}

// gammaDraw returns a Gamma(shape, 1) variate via Marsaglia-Tsang squeeze
// for shape >= 1 and the Stuart boost for shape < 1.
func gammaDraw(r *rand.Rand, shape float64) float64 {
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a) for a < 1.
		u := 1 - r.Float64() // (0, 1]: U^(1/a) stays positive
		return gammaDraw(r, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := 1 - r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}
