package dag

import (
	"bytes"
	"errors"
	"math"
	"math/big"
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
// edge, monotone b-level along edges, b-load within the total work). The
// high half of the first byte scales runtimes and demands by up to 2^60, and
// a math/big reference checks the work sums: Build refuses the job with
// ErrTooLarge exactly when its work passes 2^128 or its critical path an
// int64, and otherwise TotalWork, its float64, the critical path and
// MakespanLowerBound (an error past an int64) match the reference.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 0, 1, 1, 2})
	f.Add([]byte{2, 5, 5, 0, 1, 1, 0}) // attempted 2-cycle
	f.Add([]byte{1, 0})
	f.Add([]byte{})
	f.Add([]byte{0x81, 8, 4, 8, 4})                                // work past an int64, bound within
	f.Add([]byte{0xf1, 8, 4, 8, 4})                                // bound past an int64
	f.Add([]byte{0xf1, 8, 1, 8, 1, 0, 1})                          // critical path past an int64
	f.Add(append([]byte{0xff}, bytes.Repeat([]byte{8, 4}, 16)...)) // work past 2^128

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]%16) + 1
		shift := uint(data[0]>>4) * 4
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
		runtimes, demands := make([]int64, n), make([]int64, n)
		for i := 0; i < n; i++ {
			runtimes[i] = int64(next()%9) - 1 // occasionally invalid (<= 0)
			if runtimes[i] > 0 {
				runtimes[i] <<= shift
			}
			demands[i] = int64(next()%5) << shift
			b.AddTask("t", runtimes[i], resource.Of(demands[i]))
		}
		succ := make([][]int, n)
		for pos+1 < len(data) {
			parent, child := int(next()%byte(n+2)), int(next()%byte(n+2))
			b.AddDep(TaskID(parent), TaskID(child))
			if parent < n && child < n {
				succ[parent] = append(succ[parent], child)
			}
		}

		g, err := b.Build()
		if err != nil && !errors.Is(err, ErrTooLarge) {
			return // rejected inputs are fine; they must not panic
		}
		// Past the cycle check, so the reference's recursion ends.
		work, maxDemand := new(big.Int), int64(1)
		for i := range runtimes {
			work.Add(work, new(big.Int).Mul(big.NewInt(runtimes[i]), big.NewInt(demands[i])))
			maxDemand = max(maxDemand, demands[i])
		}
		blevel := make([]*big.Int, n)
		var levelOf func(v int) *big.Int
		levelOf = func(v int) *big.Int {
			if blevel[v] == nil {
				longest := new(big.Int)
				for _, c := range succ[v] {
					if l := levelOf(c); l.Cmp(longest) > 0 {
						longest = l
					}
				}
				blevel[v] = new(big.Int).Add(longest, big.NewInt(runtimes[v]))
			}
			return blevel[v]
		}
		cp := new(big.Int)
		for v := range blevel {
			if l := levelOf(v); l.Cmp(cp) > 0 {
				cp = l
			}
		}
		maxInt64 := big.NewInt(math.MaxInt64)
		tooLarge := work.BitLen() > 128 || cp.Cmp(maxInt64) > 0
		if tooLarge != (err != nil) {
			t.Fatalf("work %v, critical path %v: Build error %v", work, cp, err)
		}
		if err != nil {
			return
		}
		if got := bigOf(g.TotalWork(0)); got.Cmp(work) != 0 {
			t.Fatalf("TotalWork %v, want %v", got, work)
		}
		if got, want := g.TotalWork(0).Float64(), bigFloat64(work); got != want {
			t.Fatalf("TotalWork %v as a float64: %v, want %v", work, got, want)
		}
		if cp.Cmp(big.NewInt(g.CriticalPath())) != 0 {
			t.Fatalf("critical path %d, want %v", g.CriticalPath(), cp)
		}
		bound := new(big.Int).Add(work, big.NewInt(maxDemand-1))
		if bound.Quo(bound, big.NewInt(maxDemand)); bound.Cmp(cp) < 0 {
			bound = cp
		}
		switch lb, err := g.MakespanLowerBound(resource.Of(maxDemand)); {
		case bound.Cmp(maxInt64) > 0 && err == nil:
			t.Fatalf("bound %v on capacity %d: got %d, want an error", bound, maxDemand, lb)
		case bound.Cmp(maxInt64) <= 0 && (err != nil || bound.Cmp(big.NewInt(lb)) != 0):
			t.Fatalf("bound on capacity %d: got %d, %v; want %v", maxDemand, lb, err, bound)
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
			if bigOf(g.BLoad(TaskID(id), 0)).Cmp(work) > 0 {
				t.Fatalf("b-load at %d above the total work", id)
			}
		}
		if g.CriticalPath() < g.MaxRuntime() {
			t.Fatalf("critical path %d < max runtime %d", g.CriticalPath(), g.MaxRuntime())
		}
	})
}

// bigOf returns w as a big.Int.
func bigOf(w Work) *big.Int {
	x := new(big.Int).SetUint64(w.Hi)
	return x.Lsh(x, 64).Or(x, new(big.Int).SetUint64(w.Lo))
}

// bigFloat64 rounds x to the nearest float64, ties to even.
func bigFloat64(x *big.Int) float64 {
	f, _ := new(big.Float).SetInt(x).Float64()
	return f
}
