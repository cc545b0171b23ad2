package baselines

import (
	"math/rand"

	"spear/internal/simenv"
)

// TetrisSRPT is the full scoring rule of the original Tetris paper (Grandl
// et al. 2014): a weighted combination of the packing alignment score and a
// shortest-remaining-processing-time term, trading cluster efficiency
// against job completion time. With Weight = 0 it degenerates to pure
// packing (the Tetris policy in this package); larger weights favour short
// tasks.
type TetrisSRPT struct {
	// Weight balances SRPT against packing; the original paper found
	// moderate values effective. Must be >= 0.
	Weight float64
}

var _ simenv.Policy = TetrisSRPT{}

// Name implements simenv.Policy.
func (TetrisSRPT) Name() string { return "Tetris+SRPT" }

// Choose implements simenv.Policy.
func (p TetrisSRPT) Choose(e *simenv.Env, legal []simenv.Action, _ *rand.Rand) (simenv.Action, error) {
	var buf availBuf
	avail := e.AvailableNowInto(buf[:0])
	g := e.Graph()

	// Normalize both terms to comparable ranges: alignment by the maximum
	// possible dot product, SRPT by the largest runtime in the job.
	maxAlign := 1.0
	if d, err := avail.Dot(avail); err == nil && d > 0 {
		maxAlign = float64(d)
	}
	maxRT := float64(g.MaxRuntime())

	score := func(a simenv.Action) float64 {
		task := g.Task(e.VisibleTask(a.Slot()))
		dot, _ := task.Demand.Dot(avail) //spear:ignoreerr(alignment and demand dimensions agree by construction)
		align := float64(dot) / maxAlign
		srpt := 1 - float64(task.Runtime)/maxRT // shorter is better
		return align + float64(p.Weight*srpt)   // float64 rounds: no fused multiply-add
	}
	return pickBest(legal, func(a, b simenv.Action) bool {
		return score(a) > score(b)
	}), nil
}

// NewTetrisSRPTScheduler wraps the combined policy as a full scheduler.
func NewTetrisSRPTScheduler(weight float64) *PolicyScheduler {
	return newPolicyScheduler(TetrisSRPT{Weight: weight}, nil, 0)
}
