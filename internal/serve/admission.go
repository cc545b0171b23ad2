package serve

import (
	"fmt"
	"math"
)

// Admission policy names accepted in AdmissionConfig.Policy.
const (
	// PolicyAlways admits every arriving job (the open-loop baseline).
	PolicyAlways = "always"
	// PolicyTokenBucket admits at a sustained rate with bounded bursts.
	PolicyTokenBucket = "token-bucket"
)

// AdmissionConfig selects and parameterizes the admission policy.
type AdmissionConfig struct {
	// Policy is one of PolicyAlways (also the empty default) or
	// PolicyTokenBucket.
	Policy string `json:"policy"`
	// BucketCap is the token-bucket burst capacity in jobs.
	BucketCap float64 `json:"bucketCap,omitempty"`
	// RefillPerSlot is the sustained admission rate in jobs per slot.
	RefillPerSlot float64 `json:"refillPerSlot,omitempty"`
}

// Admission decides, on the simulated clock, whether an arriving job enters
// the backlog. Implementations see arrivals in nondecreasing time order and
// must be deterministic: the decision may depend only on the clock and the
// sequence of prior calls, never on wall time or unseeded randomness.
type Admission interface {
	// Admit is called once per arrival; returning false rejects the job
	// permanently (the serving loop has no retry queue).
	Admit(now int64) bool
}

// NewAdmission builds the policy described by cfg.
func NewAdmission(cfg AdmissionConfig) (Admission, error) {
	switch cfg.Policy {
	case "", PolicyAlways:
		return AlwaysAdmit{}, nil
	case PolicyTokenBucket:
		return NewTokenBucket(cfg.BucketCap, cfg.RefillPerSlot)
	default:
		return nil, fmt.Errorf("serve: unknown admission policy %q (want %q or %q)",
			cfg.Policy, PolicyAlways, PolicyTokenBucket)
	}
}

// AlwaysAdmit accepts every job.
type AlwaysAdmit struct{}

// Admit always reports true.
func (AlwaysAdmit) Admit(int64) bool { return true }

// TokenBucket admits up to capacity jobs in a burst and refills at a fixed
// rate per simulated slot. The bucket starts full.
type TokenBucket struct {
	capacity float64
	rate     float64
	tokens   float64
	last     int64
}

// NewTokenBucket returns a full bucket with the given burst capacity (jobs)
// and refill rate (jobs per slot).
func NewTokenBucket(capacity, refillPerSlot float64) (*TokenBucket, error) {
	// Negated tests, so that NaN fails them too.
	if !(capacity >= 1) || math.IsInf(capacity, 1) {
		return nil, fmt.Errorf("serve: token bucket capacity %v must be finite and >= 1", capacity)
	}
	if !(refillPerSlot >= 0) || math.IsInf(refillPerSlot, 1) {
		return nil, fmt.Errorf("serve: token bucket refill rate %v must be finite and >= 0", refillPerSlot)
	}
	return &TokenBucket{capacity: capacity, rate: refillPerSlot, tokens: capacity}, nil
}

// Admit spends one token if available after refilling for the elapsed slots.
func (b *TokenBucket) Admit(now int64) bool {
	if now > b.last {
		b.tokens += float64(float64(now-b.last) * b.rate) // float64 rounds: no fused multiply-add
		if b.tokens > b.capacity {
			b.tokens = b.capacity
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}
