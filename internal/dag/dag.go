// Package dag models a job as a directed acyclic graph of tasks with
// per-task runtimes and multi-dimensional resource demands, and computes the
// graph features the scheduler and the DRL policy consume: b-level, b-load,
// child counts and the critical path (paper §III-D).
package dag

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"spear/internal/resource"
)

// TaskID identifies a task within a single Graph. IDs are dense: a graph with
// n tasks uses IDs 0..n-1, assigned in insertion order by the Builder.
type TaskID int32

// Task is a single unit of work: it runs for Runtime ticks and occupies
// Demand resources for its whole duration.
type Task struct {
	ID      TaskID
	Name    string
	Runtime int64
	Demand  resource.Vector
}

// Graph is an immutable DAG of tasks. Build one with a Builder. All feature
// queries are O(1) after construction.
type Graph struct {
	tasks []Task
	succ  [][]TaskID
	pred  [][]TaskID
	topo  []TaskID // topological order, entry tasks first

	blevel []int64  // longest runtime path from task to an exit, inclusive
	bload  [][]Work // accumulated load along the b-level path, per dimension
	dims   int

	// Graph-level scalars cached at Build time; the graph is immutable, and
	// these sit on the per-step DRL featurization hot path.
	criticalPath int64
	maxRuntime   int64
	totalWork    []Work // per dimension
}

// Work is an amount of resource-time: runtime x demand, summed. One product
// of two int64 values needs up to 126 bits, so Work carries 128; Hi and Lo
// are its high and low 64-bit words.
type Work struct{ Hi, Lo uint64 }

// workOf returns runtime x demand; neither is negative.
func workOf(runtime, demand int64) Work {
	hi, lo := bits.Mul64(uint64(runtime), uint64(demand))
	return Work{hi, lo}
}

// plus returns w + x and whether the sum carried out of 128 bits.
func (w Work) plus(x Work) (Work, bool) {
	lo, carry := bits.Add64(w.Lo, x.Lo, 0)
	hi, carry := bits.Add64(w.Hi, x.Hi, carry)
	return Work{hi, lo}, carry != 0
}

func (w Work) less(x Work) bool { return w.Hi < x.Hi || w.Hi == x.Hi && w.Lo < x.Lo }

// Float64 returns w rounded to the nearest float64, ties to even: the value
// Go's conversion gives for a Work that fits an int64.
func (w Work) Float64() float64 {
	if w.Hi == 0 {
		return float64(w.Lo)
	}
	return w.wideFloat64() // apart, so that the common case inlines
}

func (w Work) wideFloat64() float64 {
	// The top 64 significant bits, with every bit below them folded into
	// the last one, round to 53 as all 128 would.
	s := uint(bits.Len64(w.Hi))
	top := w.Hi<<(64-s) | w.Lo>>s
	if w.Lo<<(64-s) != 0 {
		top |= 1
	}
	return math.Ldexp(float64(top), int(s))
}

// ceilDiv returns the ceiling of w / c and whether it fits an int64; c > 0.
func (w Work) ceilDiv(c int64) (int64, bool) {
	if w.Hi >= uint64(c) {
		return 0, false // the quotient needs more than 64 bits
	}
	q, r := bits.Div64(w.Hi, w.Lo, uint64(c))
	if q > math.MaxInt64 || q == math.MaxInt64 && r != 0 {
		return 0, false
	}
	if r != 0 {
		q++
	}
	return int64(q), true
}

// Errors reported by Builder.Build.
var (
	ErrCycle          = errors.New("dag: graph contains a cycle")
	ErrEmpty          = errors.New("dag: graph has no tasks")
	ErrBadRuntime     = errors.New("dag: task runtime must be positive")
	ErrBadDemand      = errors.New("dag: task demand must be non-negative with matching dimensions")
	ErrUnknownTask    = errors.New("dag: unknown task id")
	ErrSelfDependency = errors.New("dag: task cannot depend on itself")
	ErrTooLarge       = errors.New("dag: job features overflow")
)

// Builder incrementally assembles a Graph.
type Builder struct {
	dims  int
	tasks []Task
	succ  [][]TaskID
	pred  [][]TaskID
	err   error // first structural error, reported by Build
}

// NewBuilder returns a Builder for graphs whose task demands have the given
// number of resource dimensions.
func NewBuilder(dims int) *Builder {
	return &Builder{dims: dims}
}

// AddTask appends a task and returns its ID. The demand vector is copied.
// Invalid runtimes or demands are recorded and reported by Build.
func (b *Builder) AddTask(name string, runtime int64, demand resource.Vector) TaskID {
	id := TaskID(len(b.tasks))
	if runtime <= 0 && b.err == nil {
		b.err = fmt.Errorf("%w: task %q has runtime %d", ErrBadRuntime, name, runtime)
	}
	if (demand.Dims() != b.dims || !demand.NonNegative()) && b.err == nil {
		b.err = fmt.Errorf("%w: task %q demand %v (want %d dims)", ErrBadDemand, name, demand, b.dims)
	}
	b.tasks = append(b.tasks, Task{ID: id, Name: name, Runtime: runtime, Demand: demand.Clone()})
	b.succ = append(b.succ, nil)
	b.pred = append(b.pred, nil)
	return id
}

// AddDep records that child cannot start until parent has finished.
// Duplicate edges are ignored: Build keeps the first of each.
func (b *Builder) AddDep(parent, child TaskID) {
	if int(parent) < 0 || int(parent) >= len(b.tasks) || int(child) < 0 || int(child) >= len(b.tasks) {
		if b.err == nil {
			b.err = fmt.Errorf("%w: edge %d -> %d with %d tasks", ErrUnknownTask, parent, child, len(b.tasks))
		}
		return
	}
	if parent == child {
		if b.err == nil {
			b.err = fmt.Errorf("%w: task %d", ErrSelfDependency, parent)
		}
		return
	}
	b.succ[parent] = append(b.succ[parent], child)
	b.pred[child] = append(b.pred[child], parent)
}

// Build validates the accumulated structure and returns the immutable Graph.
// The Builder must not be reused after a successful Build.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.tasks) == 0 {
		return nil, ErrEmpty
	}
	dropRepeats(b.succ)
	dropRepeats(b.pred)
	g := &Graph{tasks: b.tasks, succ: b.succ, pred: b.pred, dims: b.dims}
	topo, err := g.topologicalOrder()
	if err != nil {
		return nil, err
	}
	g.topo = topo
	if err := g.computeFeatures(); err != nil {
		return nil, err
	}
	return g, nil
}

// dropRepeats removes the repeats from every list in place, keeping each
// entry's first occurrence and the order: seen[x] == i+1 marks x as already
// in lists[i]. There is one list per task.
func dropRepeats(lists [][]TaskID) {
	seen := make([]int, len(lists))
	for i, list := range lists {
		kept := list[:0]
		for _, x := range list {
			if seen[x] != i+1 {
				seen[x] = i + 1
				kept = append(kept, x)
			}
		}
		lists[i] = kept
	}
}

// topologicalOrder returns tasks in dependency order (Kahn's algorithm) or
// ErrCycle when the graph is cyclic. The order is deterministic: among tasks
// whose dependencies are all satisfied, the lowest ID comes first.
func (g *Graph) topologicalOrder() ([]TaskID, error) {
	n := len(g.tasks)
	indeg := make([]int, n)
	for id := 0; id < n; id++ {
		indeg[id] = len(g.pred[id])
	}
	order := make([]TaskID, 0, n)
	// The ready set is a binary min-heap; ascending IDs already are one.
	ready := make([]TaskID, 0, n)
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			ready = append(ready, TaskID(id))
		}
	}
	for len(ready) > 0 {
		var id TaskID
		id, ready = popID(ready)
		order = append(order, id)
		for _, s := range g.succ[id] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = pushID(ready, s)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// pushID and popID keep h a binary min-heap: h[i] <= h[2i+1], h[2i+2].
func pushID(h []TaskID, id TaskID) []TaskID {
	h = append(h, id)
	for i := len(h) - 1; i > 0 && h[(i-1)/2] > h[i]; i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
	}
	return h
}

func popID(h []TaskID) (TaskID, []TaskID) {
	top, n := h[0], len(h)-1
	h[0], h = h[n], h[:n]
	for i, c := 0, 1; c < n; i, c = c, 2*c+1 {
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
	}
	return top, h
}

// computeFeatures fills blevel and bload by a reverse topological sweep.
//
// blevel(v) = runtime(v) + max over children blevel(c); the b-level of an
// exit task is its own runtime. bload(v) accumulates runtime*demand along
// the same path that realizes the b-level (ties broken by larger total
// b-load, then by smaller child ID), per resource dimension.
//
// The work sums are exact: it refuses a job whose work, summed over tasks
// and dimensions, passes 2^128 (every b-load and tie-break sum is part of
// that one), or whose b-level passes an int64.
func (g *Graph) computeFeatures() error {
	n := len(g.tasks)
	g.totalWork = make([]Work, g.dims)
	var all Work
	for i := range g.tasks {
		t := &g.tasks[i]
		g.maxRuntime = max(g.maxRuntime, t.Runtime)
		for d := 0; d < g.dims; d++ {
			w := workOf(t.Runtime, t.Demand[d])
			g.totalWork[d], _ = g.totalWork[d].plus(w)
			var overflow bool
			if all, overflow = all.plus(w); overflow {
				return fmt.Errorf("%w: the job's work passes 2^128 at task %q, dimension %d", ErrTooLarge, t.Name, d)
			}
		}
	}

	g.blevel = make([]int64, n)
	g.bload = make([][]Work, n)
	loadSum := make([]Work, n) // b-load summed over dimensions, the tie-break
	for i := len(g.topo) - 1; i >= 0; i-- {
		v := g.topo[i]
		t := &g.tasks[v]
		best := TaskID(-1)
		for _, c := range g.succ[v] {
			if best == -1 {
				best = c
				continue
			}
			switch {
			case g.blevel[c] > g.blevel[best]:
				best = c
			case g.blevel[c] == g.blevel[best]:
				if loadSum[best].less(loadSum[c]) || (loadSum[c] == loadSum[best] && c < best) {
					best = c
				}
			}
		}
		load := make([]Work, g.dims)
		g.blevel[v] = t.Runtime
		if best >= 0 {
			if g.blevel[best] > math.MaxInt64-t.Runtime {
				return fmt.Errorf("%w: task %q's b-level passes %d", ErrTooLarge, t.Name, int64(math.MaxInt64))
			}
			g.blevel[v] += g.blevel[best]
			copy(load, g.bload[best])
		}
		for d := range load {
			load[d], _ = load[d].plus(workOf(t.Runtime, t.Demand[d]))
			loadSum[v], _ = loadSum[v].plus(load[d])
		}
		g.bload[v] = load
	}

	for id := range g.tasks {
		if g.pred[id] == nil && g.blevel[id] > g.criticalPath {
			g.criticalPath = g.blevel[id]
		}
	}
	return nil
}

// NumTasks reports the number of tasks in the graph.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// Dims reports the number of resource dimensions of task demands.
func (g *Graph) Dims() int { return g.dims }

// Task returns the task with the given ID. The returned value shares the
// demand vector with the graph; callers must not modify it.
func (g *Graph) Task(id TaskID) Task { return g.tasks[id] }

// Succ returns the direct successors (children) of id. The returned slice is
// owned by the graph; callers must not modify it.
func (g *Graph) Succ(id TaskID) []TaskID { return g.succ[id] }

// Pred returns the direct predecessors (parents) of id. The returned slice
// is owned by the graph; callers must not modify it.
func (g *Graph) Pred(id TaskID) []TaskID { return g.pred[id] }

// NumChildren reports the out-degree of id, one of the DRL tie-break
// features (paper §III-D).
func (g *Graph) NumChildren(id TaskID) int { return len(g.succ[id]) }

// TopologicalOrder returns a copy of the cached dependency order.
func (g *Graph) TopologicalOrder() []TaskID {
	out := make([]TaskID, len(g.topo))
	copy(out, g.topo)
	return out
}

// BLevel returns the longest runtime path from id to any exit task,
// including id's own runtime.
func (g *Graph) BLevel(id TaskID) int64 { return g.blevel[id] }

// BLoad returns the accumulated load (runtime x demand) along id's b-level
// path for the given resource dimension.
func (g *Graph) BLoad(id TaskID, dim int) Work { return g.bload[id][dim] }

// CriticalPath returns the length of the longest runtime path through the
// graph — a lower bound on any schedule's makespan. Cached at Build time.
func (g *Graph) CriticalPath() int64 { return g.criticalPath }

// Entries returns the tasks with no predecessors, in ID order.
func (g *Graph) Entries() []TaskID {
	var out []TaskID
	for id := range g.tasks {
		if len(g.pred[id]) == 0 {
			out = append(out, TaskID(id))
		}
	}
	return out
}

// Exits returns the tasks with no successors, in ID order.
func (g *Graph) Exits() []TaskID {
	var out []TaskID
	for id := range g.tasks {
		if len(g.succ[id]) == 0 {
			out = append(out, TaskID(id))
		}
	}
	return out
}

// TotalWork returns the sum over tasks of runtime x demand for the given
// dimension: the total area the job occupies in the resource-time space.
// Cached at Build time.
func (g *Graph) TotalWork(dim int) Work { return g.totalWork[dim] }

// MakespanLowerBound returns a simple lower bound on the makespan of any
// valid schedule: the maximum of the critical path and, per dimension, the
// total work divided by capacity (rounded up). A bound past an int64 is an
// error: no schedule of the job on that capacity fits the int64 time line.
func (g *Graph) MakespanLowerBound(capacity resource.Vector) (int64, error) {
	if capacity.Dims() != g.dims {
		return 0, resource.ErrDimensionMismatch
	}
	lb := g.CriticalPath()
	for d := 0; d < g.dims; d++ {
		if capacity[d] <= 0 {
			return 0, fmt.Errorf("dag: capacity dimension %d is not positive", d)
		}
		bound, ok := g.totalWork[d].ceilDiv(capacity[d])
		if !ok {
			return 0, fmt.Errorf("dag: the work in dimension %d takes more than %d slots on capacity %d", d, int64(math.MaxInt64), capacity[d])
		}
		lb = max(lb, bound)
	}
	return lb, nil
}

// MaxDemand returns, per dimension, the largest demand of any single task.
// A graph is schedulable on a cluster only if MaxDemand fits within its
// capacity.
func (g *Graph) MaxDemand() resource.Vector {
	out := resource.New(g.dims)
	for i := range g.tasks {
		for d := 0; d < g.dims; d++ {
			if g.tasks[i].Demand[d] > out[d] {
				out[d] = g.tasks[i].Demand[d]
			}
		}
	}
	return out
}

// MaxRuntime returns the largest runtime of any single task. Cached at
// Build time.
func (g *Graph) MaxRuntime() int64 { return g.maxRuntime }
