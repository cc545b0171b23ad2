package baselines

import (
	"math/rand"

	"spear/internal/simenv"
)

// Tetris is the multi-resource packing heuristic of Grandl et al. (SIGCOMM
// 2014) as characterized in the paper: at every decision point it starts the
// ready task whose demand vector has the largest alignment (inner product)
// with the currently available capacity, processing only when nothing fits.
// It is packing-aware but dependency-blind.
type Tetris struct{}

var _ simenv.Policy = Tetris{}

// Name implements simenv.Policy.
func (Tetris) Name() string { return "Tetris" }

// Choose implements simenv.Policy.
func (Tetris) Choose(e *simenv.Env, legal []simenv.Action, _ *rand.Rand) (simenv.Action, error) {
	var buf availBuf
	avail := e.AvailableNowInto(buf[:0])
	score := func(a simenv.Action) int64 {
		task := e.Graph().Task(e.VisibleTask(a.Slot()))
		// Demands and availability are validated to share dimensions.
		s, _ := task.Demand.Dot(avail) //spear:ignoreerr(alignment and demand dimensions agree by construction)
		return s
	}
	return pickBest(legal, func(a, b simenv.Action) bool {
		sa, sb := score(a), score(b)
		if sa != sb {
			return sa > sb
		}
		// Tie-break on longer runtime (pack big rocks first), then keep the
		// earlier action.
		ra := e.Graph().Task(e.VisibleTask(a.Slot())).Runtime
		rb := e.Graph().Task(e.VisibleTask(b.Slot())).Runtime
		return ra > rb
	}), nil
}

// NewTetrisScheduler returns Tetris wrapped as a full scheduler.
func NewTetrisScheduler() *PolicyScheduler {
	return newPolicyScheduler(Tetris{}, nil, 0)
}
