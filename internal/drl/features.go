// Package drl implements the paper's deep reinforcement learning agent
// (§III-D, §IV): the state featurization (cluster occupancy image plus
// per-ready-task features — runtime, demands, b-level, child count and
// per-resource b-load), the policy network wrapper that acts as a
// scheduling policy and as an MCTS expansion guide, supervised warm-start
// training that imitates the critical-path heuristic, and REINFORCE with a
// 20-rollout averaged baseline.
package drl

import (
	"fmt"

	"spear/internal/simenv"
)

// Features describes the fixed-size encoding of an environment state.
type Features struct {
	// Window is the maximum number of ready tasks encoded (paper: 15).
	Window int
	// Horizon is the number of future time slots of cluster occupancy
	// encoded (paper: 20).
	Horizon int
	// Dims is the number of resource dimensions (paper: 2).
	Dims int
}

// DefaultFeatures returns the paper's settings (§V-A).
func DefaultFeatures() Features { return Features{Window: 15, Horizon: 20, Dims: 2} }

// perTaskFeatures is the number of features per ready-task slot:
// runtime, b-level, child count, plus demand and b-load per dimension.
func (f Features) perTaskFeatures() int { return 3 + 2*f.Dims }

// InputSize returns the encoded state vector length: the occupancy image,
// the ready-task slots, and two scalars (backlog pressure and the number of
// running tasks).
func (f Features) InputSize() int {
	return f.Dims*f.Horizon + f.Window*f.perTaskFeatures() + 2
}

// OutputSize returns the action-space size: one logit per ready-task slot
// plus one for the process action.
func (f Features) OutputSize() int { return f.Window + 1 }

// ProcessIndex is the output index of the process action.
func (f Features) ProcessIndex() int { return f.Window }

// Validate checks the feature configuration.
func (f Features) Validate() error {
	if f.Window < 1 || f.Horizon < 1 || f.Dims < 1 {
		return fmt.Errorf("drl: invalid features %+v", f)
	}
	return nil
}

// Encode writes the state of e as a feature vector. All features are
// normalized to roughly [0, 1] using per-job scales (critical path, total
// work, max runtime) so one trained network generalizes across jobs.
// The buf slice is reused when it has the right length, in which case the
// call performs zero heap allocations — this is the first stage of the
// per-step inference fast path.
func (f Features) Encode(e *simenv.Env, buf []float64) []float64 {
	size := f.InputSize()
	if len(buf) != size {
		buf = growEncoding(size)
	} else {
		for i := range buf {
			buf[i] = 0
		}
	}
	g := e.Graph()

	// Cluster occupancy image, written in place.
	e.FillOccupancy(f.Horizon, f.Dims, buf[:f.Dims*f.Horizon])
	pos := f.Dims * f.Horizon

	// Per-job normalizers. Every graph has at least one task with positive
	// runtime, so these are never zero.
	cp := float64(g.CriticalPath())
	maxRT := float64(g.MaxRuntime())

	visible := e.NumVisible()
	for slot := 0; slot < f.Window && slot < visible; slot++ {
		task := g.Task(e.VisibleTask(slot))
		base := pos + slot*f.perTaskFeatures()
		buf[base] = float64(task.Runtime) / maxRT
		buf[base+1] = float64(g.BLevel(task.ID)) / cp
		buf[base+2] = float64(g.NumChildren(task.ID)) / 8.0
		for d := 0; d < min(f.Dims, g.Dims()); d++ { // a job's missing dims stay 0, as in the image
			buf[base+3+d] = float64(task.Demand[d]) / float64(e.CapacityDim(d))
			work := g.TotalWork(d).Float64()
			if work > 0 {
				buf[base+3+f.Dims+d] = g.BLoad(task.ID, d).Float64() / work
			}
		}
	}
	pos += f.Window * f.perTaskFeatures()

	buf[pos] = float64(e.Backlog()) / float64(f.Window)
	buf[pos+1] = float64(e.NumRunning()) / float64(f.Window)
	return buf
}

// growEncoding and growMask replace a buffer of the wrong length. Callers that
// pass a sized buffer — every AgentContext — never reach them.
func growEncoding(n int) []float64 { return make([]float64, n) }

func growMask(n int) []bool { return make([]bool, n) }

// Mask returns the legality mask over the network's outputs for the given
// legal actions (as produced by Env.LegalActions).
func (f Features) Mask(legal []simenv.Action, buf []bool) []bool {
	size := f.OutputSize()
	if len(buf) != size {
		buf = growMask(size)
	} else {
		for i := range buf {
			buf[i] = false
		}
	}
	for _, a := range legal {
		if f.encodable(a) {
			buf[f.IndexFor(a)] = true
		}
	}
	return buf
}

// encodable reports whether a has an output of its own: Process, or a slot
// below Window on machine 0. Mask leaves every other action out.
func (f Features) encodable(a simenv.Action) bool {
	return a == simenv.Process || (a >= 0 && int(a) < f.Window)
}

// forced reports whether legal leaves the policy no choice: exactly one
// action, which Mask can encode. The masked softmax over one finite logit is
// exactly 1 there and 0 elsewhere, so argmax picks that action, and so does
// sampling, whatever uniform it draws.
func (f Features) forced(legal []simenv.Action) bool {
	return len(legal) == 1 && f.encodable(legal[0])
}

// ActionFor maps an output index back to an environment action.
func (f Features) ActionFor(index int) simenv.Action {
	if index == f.ProcessIndex() {
		return simenv.Process
	}
	return simenv.Action(index)
}

// IndexFor maps an environment action to its output index.
func (f Features) IndexFor(a simenv.Action) int {
	if a == simenv.Process {
		return f.ProcessIndex()
	}
	return int(a)
}
