package baselines

import (
	"errors"
	"math/rand"

	"spear/internal/simenv"
)

// errNilRand is returned when a stochastic policy is invoked without a
// random source.
var errNilRand = errors.New("baselines: random policy requires a non-nil rng")

// Random picks a uniformly random legal action. It is the default rollout
// and expansion policy of classic MCTS (paper §II-A) and the control arm of
// the DRL-guidance ablation.
type Random struct{}

var _ simenv.Policy = Random{}

// Name implements simenv.Policy.
func (Random) Name() string { return "Random" }

// Choose implements simenv.Policy.
func (Random) Choose(_ *simenv.Env, legal []simenv.Action, rng *rand.Rand) (simenv.Action, error) {
	if rng == nil {
		return 0, errNilRand
	}
	return legal[rng.Intn(len(legal))], nil
}

// NewRandomScheduler returns the random policy wrapped as a full scheduler.
func NewRandomScheduler(seed int64) *PolicyScheduler {
	return newPolicyScheduler(Random{}, rand.New(rand.NewSource(seed)), seed)
}
