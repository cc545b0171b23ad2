package dag

import (
	"slices"
	"testing"

	"spear/internal/resource"
)

// lowestReadyFirst is Kahn's algorithm that scans the whole ready set for
// its lowest ID on every pop: the reference for the heap's order.
func lowestReadyFirst(g *Graph) []TaskID {
	indeg := make([]int, g.NumTasks())
	var ready, order []TaskID
	for id := range indeg {
		if indeg[id] = len(g.Pred(TaskID(id))); indeg[id] == 0 {
			ready = append(ready, TaskID(id))
		}
	}
	for len(ready) > 0 {
		i := slices.Index(ready, slices.Min(ready))
		id := ready[i]
		ready = slices.Delete(ready, i, i+1)
		order = append(order, id)
		for _, s := range g.Succ(id) {
			if indeg[s]--; indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return order
}

// FuzzBuilder feeds arbitrary byte-driven task/edge streams into the
// Builder: Build must either return an error or a graph whose invariants
// hold (acyclic topological order, lowest ready ID first, no repeated
// edge, monotone b-level along edges, non-negative b-load).
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 0, 1, 1, 2})
	f.Add([]byte{2, 5, 5, 0, 1, 1, 0}) // attempted 2-cycle
	f.Add([]byte{1, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]%16) + 1
		b := NewBuilder(1)
		pos := 1
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			v := data[pos]
			pos++
			return v
		}
		for i := 0; i < n; i++ {
			runtime := int64(next()%9) - 1 // occasionally invalid (<= 0)
			b.AddTask("t", runtime, resource.Of(int64(next()%5)))
		}
		for pos+1 < len(data) {
			b.AddDep(TaskID(next()%byte(n+2)), TaskID(next()%byte(n+2)))
		}

		g, err := b.Build()
		if err != nil {
			return // rejected inputs are fine; they must not panic
		}
		order := g.TopologicalOrder()
		if len(order) != g.NumTasks() {
			t.Fatalf("topo order covers %d of %d tasks", len(order), g.NumTasks())
		}
		if want := lowestReadyFirst(g); !slices.Equal(order, want) {
			t.Fatalf("topo order %v, lowest ready ID first gives %v", order, want)
		}
		posOf := make(map[TaskID]int, len(order))
		for i, id := range order {
			posOf[id] = i
		}
		for id := 0; id < g.NumTasks(); id++ {
			succ := slices.Clone(g.Succ(TaskID(id)))
			if slices.Sort(succ); len(slices.Compact(succ)) != len(g.Succ(TaskID(id))) {
				t.Fatalf("task %d lists a child twice: %v", id, g.Succ(TaskID(id)))
			}
			for _, s := range g.Succ(TaskID(id)) {
				if posOf[TaskID(id)] >= posOf[s] {
					t.Fatalf("edge %d->%d violates topo order", id, s)
				}
				if g.BLevel(TaskID(id)) <= g.BLevel(s) {
					t.Fatalf("b-level not monotone along %d->%d", id, s)
				}
			}
			if g.BLoad(TaskID(id), 0) < 0 {
				t.Fatalf("negative b-load at %d", id)
			}
		}
		if g.CriticalPath() < g.MaxRuntime() {
			t.Fatalf("critical path %d < max runtime %d", g.CriticalPath(), g.MaxRuntime())
		}
	})
}
