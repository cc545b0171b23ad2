package drl

import (
	"fmt"

	"spear/internal/dag"
	"spear/internal/nn"
	"spear/internal/resource"
	"spear/internal/simenv"
)

// Evaluate runs the policy greedily (argmax actions, no search) once per
// job and returns the per-job and mean makespans — the standalone-DRL
// measurement behind the paper's claim that "the DRL model can easily
// surpass the heuristic approaches like Tetris and SJF" (§III-D).
func Evaluate(net *nn.Network, feat Features, jobs []*dag.Graph, capacity resource.Vector) ([]int64, float64, error) {
	if len(jobs) == 0 {
		return nil, 0, fmt.Errorf("drl: no jobs to evaluate")
	}
	agent, err := NewAgent(net, feat, true)
	if err != nil {
		return nil, 0, err
	}
	rc := simenv.NewRolloutContext(agent) // one for the whole call, not one per job
	makespans := make([]int64, 0, len(jobs))
	var total float64
	for i, g := range jobs {
		e, err := simenv.New(g, capacity, simenv.Config{Window: feat.Window, Mode: simenv.NextCompletion})
		if err != nil {
			return nil, 0, fmt.Errorf("drl: evaluate job %d: %w", i, err)
		}
		m, err := rc.Rollout(e, nil)
		if err != nil {
			return nil, 0, fmt.Errorf("drl: evaluate job %d: %w", i, err)
		}
		makespans = append(makespans, m)
		total += float64(m)
	}
	return makespans, total / float64(len(jobs)), nil
}
