package workload

import (
	"fmt"
	"math/rand"

	"spear/internal/dag"
	"spear/internal/resource"
)

// Classic DAG topologies from the scheduling literature (fork-join
// pipelines, trees, Gaussian elimination), as used to benchmark HEFT-family
// algorithms. They complement the random layered DAGs of the paper's
// simulations with structured dependency patterns.

// Every topology task draws its runtime and per-dimension demands from a
// clipped normal, as RandomDAG's do.
const (
	topologyDims       = 2
	topologyMaxRuntime = 20
	topologyMaxDemand  = 20
)

// TopologyCapacity returns the cluster capacity the topology jobs are sized
// for: the largest demand in every dimension.
func TopologyCapacity() resource.Vector {
	return resource.Uniform(topologyDims, topologyMaxDemand)
}

// addRandomTask appends one task with clipped-normal runtime and demands.
func addRandomTask(b *dag.Builder, r *rand.Rand, name string) dag.TaskID {
	demand := make(resource.Vector, topologyDims)
	for d := range demand {
		demand[d] = clippedNormal(r, float64(topologyMaxDemand)/2, float64(topologyMaxDemand)/5, topologyMaxDemand)
	}
	runtime := clippedNormal(r, float64(topologyMaxRuntime)/2, float64(topologyMaxRuntime)/5, topologyMaxRuntime)
	return b.AddTask(name, runtime, demand)
}

// ForkJoin builds stages fork-join stages: each stage forks a source into
// width parallel tasks that join into a sink, and stages run in series.
func ForkJoin(r *rand.Rand, stages, width int) (*dag.Graph, error) {
	if stages < 1 || width < 1 {
		return nil, fmt.Errorf("workload: fork-join needs stages >= 1 and width >= 1, got %d, %d", stages, width)
	}
	b := dag.NewBuilder(topologyDims)
	var prevSink dag.TaskID = -1
	for s := 0; s < stages; s++ {
		src := addRandomTask(b, r, fmt.Sprintf("fork%d", s))
		if prevSink >= 0 {
			b.AddDep(prevSink, src)
		}
		sink := addRandomTask(b, r, fmt.Sprintf("join%d", s))
		for wi := 0; wi < width; wi++ {
			mid := addRandomTask(b, r, fmt.Sprintf("work%d.%d", s, wi))
			b.AddDep(src, mid)
			b.AddDep(mid, sink)
		}
		prevSink = sink
	}
	return b.Build()
}

// OutTree builds a rooted out-tree (fan-out): every node at depth d has
// `branching` children, down to the given depth. Out-trees exercise
// schedulers' handling of exploding parallelism.
func OutTree(r *rand.Rand, depth, branching int) (*dag.Graph, error) {
	if depth < 0 || branching < 1 {
		return nil, fmt.Errorf("workload: out-tree needs depth >= 0 and branching >= 1, got %d, %d", depth, branching)
	}
	b := dag.NewBuilder(topologyDims)
	root := addRandomTask(b, r, "root")
	frontier := []dag.TaskID{root}
	for d := 0; d < depth; d++ {
		var next []dag.TaskID
		for _, parent := range frontier {
			for k := 0; k < branching; k++ {
				child := addRandomTask(b, r, fmt.Sprintf("n%d.%d", d+1, len(next)))
				b.AddDep(parent, child)
				next = append(next, child)
			}
		}
		frontier = next
	}
	return b.Build()
}

// InTree builds the mirror image of OutTree: leaves reduce toward a single
// root (aggregation trees, reductions).
func InTree(r *rand.Rand, depth, branching int) (*dag.Graph, error) {
	if depth < 0 || branching < 1 {
		return nil, fmt.Errorf("workload: in-tree needs depth >= 0 and branching >= 1, got %d, %d", depth, branching)
	}
	b := dag.NewBuilder(topologyDims)
	// Build level by level from the leaves: level d has branching^(depth-d)
	// nodes.
	count := 1
	for i := 0; i < depth; i++ {
		count *= branching
	}
	frontier := make([]dag.TaskID, count)
	for i := range frontier {
		frontier[i] = addRandomTask(b, r, fmt.Sprintf("leaf%d", i))
	}
	level := 0
	for len(frontier) > 1 {
		level++
		next := make([]dag.TaskID, 0, len(frontier)/branching)
		for i := 0; i < len(frontier); i += branching {
			parent := addRandomTask(b, r, fmt.Sprintf("agg%d.%d", level, len(next)))
			for j := i; j < i+branching && j < len(frontier); j++ {
				b.AddDep(frontier[j], parent)
			}
			next = append(next, parent)
		}
		frontier = next
	}
	return b.Build()
}

// GaussianElimination builds the dependency DAG of Gaussian elimination on
// an m x m matrix, a standard structured benchmark: for each step k there
// is one pivot task, and m-k-1 update tasks that depend on it; update j of
// step k also feeds pivot/update tasks of step k+1.
func GaussianElimination(r *rand.Rand, m int) (*dag.Graph, error) {
	if m < 2 {
		return nil, fmt.Errorf("workload: gaussian elimination needs m >= 2, got %d", m)
	}
	b := dag.NewBuilder(topologyDims)
	// updates[j] is the task that last wrote column j.
	updates := make([]dag.TaskID, m)
	for j := range updates {
		updates[j] = -1
	}
	for k := 0; k < m-1; k++ {
		pivot := addRandomTask(b, r, fmt.Sprintf("pivot%d", k))
		if updates[k] >= 0 {
			b.AddDep(updates[k], pivot)
		}
		for j := k + 1; j < m; j++ {
			update := addRandomTask(b, r, fmt.Sprintf("update%d.%d", k, j))
			b.AddDep(pivot, update)
			if updates[j] >= 0 {
				b.AddDep(updates[j], update)
			}
			updates[j] = update
		}
	}
	return b.Build()
}
