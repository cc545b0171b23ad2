// Package workload generates the three workload families of the paper's
// evaluation: random layered DAGs (§V-A "Workloads"), the 8-task motivating
// example of Fig. 3, and a synthetic production MapReduce trace calibrated
// to the statistics reported in §V-A/§V-C.
package workload

import (
	"fmt"
	"math/rand"

	"spear/internal/dag"
	"spear/internal/resource"
)

// RandomDAGConfig parameterizes the random layered DAG generator. The
// paper's simulation settings are the defaults: 100 tasks, layer widths
// between 2 and 5, task runtimes and resource demands drawn from normal
// distributions capped at 20, and a cluster with 20 resource slots per
// dimension.
type RandomDAGConfig struct {
	// NumTasks is the total number of tasks in the DAG.
	NumTasks int
	// MinWidth and MaxWidth bound the number of tasks per layer.
	MinWidth, MaxWidth int
	// Dims is the number of resource dimensions.
	Dims int
	// MaxRuntime caps task runtimes; runtimes are drawn from
	// N(MaxRuntime/2, MaxRuntime/5) and clipped to [1, MaxRuntime].
	MaxRuntime int64
	// MaxDemand caps per-dimension demands; demands are drawn from
	// N(MaxDemand/2, MaxDemand/5) and clipped to [1, MaxDemand].
	MaxDemand int64
	// MaxParents bounds how many tasks from the previous layer each task
	// depends on (at least one).
	MaxParents int
}

// DefaultRandomDAGConfig returns the paper's simulation settings.
func DefaultRandomDAGConfig() RandomDAGConfig {
	return RandomDAGConfig{
		NumTasks:   100,
		MinWidth:   2,
		MaxWidth:   5,
		Dims:       2,
		MaxRuntime: 20,
		MaxDemand:  20,
		MaxParents: 3,
	}
}

// Capacity returns the cluster capacity matching cfg: MaxDemand slots per
// dimension (paper §V-A: "the total number of resource slots in the cluster
// is 20").
func (cfg RandomDAGConfig) Capacity() resource.Vector {
	return resource.Uniform(cfg.Dims, cfg.MaxDemand)
}

func (cfg RandomDAGConfig) validate() error {
	switch {
	case cfg.NumTasks < 1:
		return fmt.Errorf("workload: NumTasks %d < 1", cfg.NumTasks)
	case cfg.MinWidth < 1 || cfg.MaxWidth < cfg.MinWidth:
		return fmt.Errorf("workload: bad width range [%d, %d]", cfg.MinWidth, cfg.MaxWidth)
	case cfg.Dims < 1:
		return fmt.Errorf("workload: Dims %d < 1", cfg.Dims)
	case cfg.MaxRuntime < 1:
		return fmt.Errorf("workload: MaxRuntime %d < 1", cfg.MaxRuntime)
	case cfg.MaxDemand < 1:
		return fmt.Errorf("workload: MaxDemand %d < 1", cfg.MaxDemand)
	case cfg.MaxParents < 1:
		return fmt.Errorf("workload: MaxParents %d < 1", cfg.MaxParents)
	}
	return nil
}

// clippedNormal draws from N(mean, std) and clips to [1, max].
func clippedNormal(r *rand.Rand, mean, std float64, max int64) int64 {
	v := int64(float64(r.NormFloat64()*std) + mean + 0.5) // float64 rounds: no fused multiply-add
	if v < 1 {
		v = 1
	}
	if v > max {
		v = max
	}
	return v
}

// RandomDAG generates a layered DAG: tasks are grouped into layers of
// random width within [MinWidth, MaxWidth], and every task (beyond the
// first layer) depends on one to MaxParents tasks of the previous layer.
// Runtimes and demands follow clipped normal distributions per cfg.
func RandomDAG(r *rand.Rand, cfg RandomDAGConfig) (*dag.Graph, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	b := dag.NewBuilder(cfg.Dims)

	runtimeMean := float64(cfg.MaxRuntime) / 2
	runtimeStd := float64(cfg.MaxRuntime) / 5
	demandMean := float64(cfg.MaxDemand) / 2
	demandStd := float64(cfg.MaxDemand) / 5

	var prevLayer []dag.TaskID
	remaining := cfg.NumTasks
	layer := 0
	for remaining > 0 {
		width := cfg.MinWidth + r.Intn(cfg.MaxWidth-cfg.MinWidth+1)
		if width > remaining {
			width = remaining
		}
		current := make([]dag.TaskID, 0, width)
		for i := 0; i < width; i++ {
			demand := make(resource.Vector, cfg.Dims)
			for d := range demand {
				demand[d] = clippedNormal(r, demandMean, demandStd, cfg.MaxDemand)
			}
			runtime := clippedNormal(r, runtimeMean, runtimeStd, cfg.MaxRuntime)
			id := b.AddTask(fmt.Sprintf("l%d.%d", layer, i), runtime, demand)
			if len(prevLayer) > 0 {
				parents := 1 + r.Intn(cfg.MaxParents)
				if parents > len(prevLayer) {
					parents = len(prevLayer)
				}
				for _, pi := range r.Perm(len(prevLayer))[:parents] {
					b.AddDep(prevLayer[pi], id)
				}
			}
			current = append(current, id)
		}
		prevLayer = current
		remaining -= width
		layer++
	}
	return b.Build()
}

// RandomBatch generates n independent DAGs with the same configuration.
// It fails for a negative n.
func RandomBatch(r *rand.Rand, cfg RandomDAGConfig, n int) ([]*dag.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("workload: negative job count %d", n)
	}
	out := make([]*dag.Graph, 0, n)
	for i := 0; i < n; i++ {
		g, err := RandomDAG(r, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}
