package dag

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"spear/internal/resource"
)

// diamond builds the classic 4-task diamond:
//
//	a(2) -> b(3), c(5) -> d(1)
func diamond(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(2)
	a := b.AddTask("a", 2, resource.Of(1, 1))
	bb := b.AddTask("b", 3, resource.Of(2, 1))
	c := b.AddTask("c", 5, resource.Of(1, 2))
	d := b.AddTask("d", 1, resource.Of(1, 1))
	b.AddDep(a, bb)
	b.AddDep(a, c)
	b.AddDep(bb, d)
	b.AddDep(c, d)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuildDiamond(t *testing.T) {
	g := diamond(t)
	if g.NumTasks() != 4 {
		t.Fatalf("NumTasks = %d, want 4", g.NumTasks())
	}
	if g.Dims() != 2 {
		t.Fatalf("Dims = %d, want 2", g.Dims())
	}
	if got := g.Task(1).Name; got != "b" {
		t.Errorf("Task(1).Name = %q, want b", got)
	}
	if got := g.NumChildren(0); got != 2 {
		t.Errorf("NumChildren(a) = %d, want 2", got)
	}
	if got := len(g.Pred(3)); got != 2 {
		t.Errorf("len(Pred(d)) = %d, want 2", got)
	}
}

func TestBLevel(t *testing.T) {
	g := diamond(t)
	// d: 1; b: 3+1=4; c: 5+1=6; a: 2+6=8.
	want := map[TaskID]int64{0: 8, 1: 4, 2: 6, 3: 1}
	for id, w := range want {
		if got := g.BLevel(id); got != w {
			t.Errorf("BLevel(%d) = %d, want %d", id, got, w)
		}
	}
	if got := g.CriticalPath(); got != 8 {
		t.Errorf("CriticalPath = %d, want 8", got)
	}
}

func TestBLoadFollowsBLevelPath(t *testing.T) {
	g := diamond(t)
	// a's b-level path is a->c->d.
	// dim0: 2*1 + 5*1 + 1*1 = 8; dim1: 2*1 + 5*2 + 1*1 = 13.
	if got := g.BLoad(0, 0); got != (Work{Lo: 8}) {
		t.Errorf("BLoad(a, 0) = %v, want 8", got)
	}
	if got := g.BLoad(0, 1); got != (Work{Lo: 13}) {
		t.Errorf("BLoad(a, 1) = %v, want 13", got)
	}
	// Exit task: just its own load.
	if got := g.BLoad(3, 1); got != (Work{Lo: 1}) {
		t.Errorf("BLoad(d, 1) = %v, want 1", got)
	}
}

func TestBLoadTieBreak(t *testing.T) {
	// Two children with equal b-level but different loads: the heavier load
	// path must be chosen.
	b := NewBuilder(1)
	root := b.AddTask("root", 1, resource.Of(1))
	light := b.AddTask("light", 5, resource.Of(1))
	heavy := b.AddTask("heavy", 5, resource.Of(4))
	b.AddDep(root, light)
	b.AddDep(root, heavy)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.BLevel(root) != 6 {
		t.Fatalf("BLevel(root) = %d, want 6", g.BLevel(root))
	}
	// root load 1*1 + heavy path 5*4 = 21.
	if got := g.BLoad(root, 0); got != (Work{Lo: 21}) {
		t.Errorf("BLoad(root) = %v, want 21 (heavy path)", got)
	}
}

func TestTopologicalOrder(t *testing.T) {
	g := diamond(t)
	order := g.TopologicalOrder()
	pos := make(map[TaskID]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	for id := 0; id < g.NumTasks(); id++ {
		for _, s := range g.Succ(TaskID(id)) {
			if pos[TaskID(id)] >= pos[s] {
				t.Errorf("topo order violates edge %d -> %d", id, s)
			}
		}
	}
	// Determinism: a then b (1) before c (2)? b and c both ready after a;
	// smallest ID first.
	want := []TaskID{0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEntriesExits(t *testing.T) {
	g := diamond(t)
	if e := g.Entries(); len(e) != 1 || e[0] != 0 {
		t.Errorf("Entries = %v, want [0]", e)
	}
	if x := g.Exits(); len(x) != 1 || x[0] != 3 {
		t.Errorf("Exits = %v, want [3]", x)
	}
}

func TestCycleRejected(t *testing.T) {
	b := NewBuilder(1)
	x := b.AddTask("x", 1, resource.Of(1))
	y := b.AddTask("y", 1, resource.Of(1))
	z := b.AddTask("z", 1, resource.Of(1))
	b.AddDep(x, y)
	b.AddDep(y, z)
	b.AddDep(z, x)
	if _, err := b.Build(); !errors.Is(err, ErrCycle) {
		t.Errorf("Build cyclic graph: err = %v, want ErrCycle", err)
	}
}

func TestEmptyRejected(t *testing.T) {
	if _, err := NewBuilder(1).Build(); !errors.Is(err, ErrEmpty) {
		t.Errorf("Build empty graph: err = %v, want ErrEmpty", err)
	}
}

func TestBadRuntimeRejected(t *testing.T) {
	for _, runtime := range []int64{0, -5} {
		b := NewBuilder(1)
		b.AddTask("bad", runtime, resource.Of(1))
		if _, err := b.Build(); !errors.Is(err, ErrBadRuntime) {
			t.Errorf("runtime %d: err = %v, want ErrBadRuntime", runtime, err)
		}
	}
}

func TestBadDemandRejected(t *testing.T) {
	b := NewBuilder(2)
	b.AddTask("wrong dims", 1, resource.Of(1))
	if _, err := b.Build(); !errors.Is(err, ErrBadDemand) {
		t.Errorf("wrong dims: err = %v, want ErrBadDemand", err)
	}

	b = NewBuilder(1)
	b.AddTask("negative", 1, resource.Of(-1))
	if _, err := b.Build(); !errors.Is(err, ErrBadDemand) {
		t.Errorf("negative demand: err = %v, want ErrBadDemand", err)
	}
}

func TestBadEdgesRejected(t *testing.T) {
	b := NewBuilder(1)
	x := b.AddTask("x", 1, resource.Of(1))
	b.AddDep(x, x)
	if _, err := b.Build(); !errors.Is(err, ErrSelfDependency) {
		t.Errorf("self dep: err = %v, want ErrSelfDependency", err)
	}

	b = NewBuilder(1)
	x = b.AddTask("x", 1, resource.Of(1))
	b.AddDep(x, TaskID(42))
	if _, err := b.Build(); !errors.Is(err, ErrUnknownTask) {
		t.Errorf("unknown task: err = %v, want ErrUnknownTask", err)
	}
}

func TestAddDepOutOfRangeAfterEarlierError(t *testing.T) {
	// Regression (found by FuzzBuilder): an out-of-range edge after an
	// already-recorded task error must not panic.
	b := NewBuilder(1)
	b.AddTask("bad-runtime", 0, resource.Of(1)) // records ErrBadRuntime
	b.AddDep(TaskID(1), TaskID(0))              // out of range; used to panic
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted invalid input")
	}
}

// TestDuplicateEdgeIgnored interleaves repeated edges among distinct ones:
// every Succ and Pred list holds each neighbour once, in the order of its
// first AddDep, and the degrees and the topological order ignore the
// repeats.
func TestDuplicateEdgeIgnored(t *testing.T) {
	b := NewBuilder(1)
	for i := 0; i < 5; i++ {
		b.AddTask("t", 1, resource.Of(1))
	}
	for _, e := range [][2]TaskID{{0, 3}, {0, 2}, {1, 3}, {0, 3}, {2, 3}, {0, 4}, {1, 3}, {0, 2}, {2, 4}, {0, 4}} {
		b.AddDep(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := map[TaskID][2][]TaskID{ // succ, pred
		0: {{3, 2, 4}, nil},
		1: {{3}, nil},
		2: {{3, 4}, {0}},
		3: {nil, {0, 1, 2}},
		4: {nil, {0, 2}},
	}
	for id, w := range want {
		if got := g.Succ(id); !slices.Equal(got, w[0]) {
			t.Errorf("Succ(%d) = %v, want %v", id, got, w[0])
		}
		if got := g.Pred(id); !slices.Equal(got, w[1]) {
			t.Errorf("Pred(%d) = %v, want %v", id, got, w[1])
		}
	}
	if got := g.NumChildren(0); got != 3 {
		t.Errorf("NumChildren(0) = %d, want 3", got)
	}
	if got, want := g.TopologicalOrder(), []TaskID{0, 1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Errorf("TopologicalOrder = %v, want %v", got, want)
	}
}

func TestDemandIsCopied(t *testing.T) {
	demand := resource.Of(3)
	b := NewBuilder(1)
	id := b.AddTask("x", 1, demand)
	demand[0] = 99
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.Task(id).Demand[0] != 3 {
		t.Errorf("builder aliases caller demand: %v", g.Task(id).Demand)
	}
}

func TestTotalWorkAndLowerBound(t *testing.T) {
	g := diamond(t)
	// dim0 work: 2*1 + 3*2 + 5*1 + 1*1 = 14; dim1: 2+3+10+1 = 16.
	if got := g.TotalWork(0); got != (Work{Lo: 14}) {
		t.Errorf("TotalWork(0) = %v, want 14", got)
	}
	if got := g.TotalWork(1); got != (Work{Lo: 16}) {
		t.Errorf("TotalWork(1) = %v, want 16", got)
	}

	// Large capacity: bound = critical path.
	lb, err := g.MakespanLowerBound(resource.Of(100, 100))
	if err != nil {
		t.Fatalf("MakespanLowerBound: %v", err)
	}
	if lb != 8 {
		t.Errorf("lower bound = %d, want 8 (critical path)", lb)
	}

	// Tight capacity: work bound dominates. dim1 work 16 over capacity 2 -> 8;
	// capacity 1 in dim1 would be infeasible for task c (demand 2), but the
	// bound itself is still computable: 16/1 = 16 > 8.
	lb, err = g.MakespanLowerBound(resource.Of(2, 1))
	if err != nil {
		t.Fatalf("MakespanLowerBound: %v", err)
	}
	if lb != 16 {
		t.Errorf("lower bound = %d, want 16", lb)
	}

	if _, err := g.MakespanLowerBound(resource.Of(1)); err == nil {
		t.Error("MakespanLowerBound with wrong dims: want error")
	}
	if _, err := g.MakespanLowerBound(resource.Of(0, 1)); err == nil {
		t.Error("MakespanLowerBound with zero capacity: want error")
	}
}

// TestWorkPastAnInt64 chains two tasks of runtime and demand 2^40. Each
// carries 2^80 of work, which int64 sums wrapped to 0. The sums are exact,
// the b-load share and the bound read them, and a job whose work passes
// 2^128, or whose b-level passes an int64, is refused by name.
func TestWorkPastAnInt64(t *testing.T) {
	b := NewBuilder(1)
	a := b.AddTask("a", 1<<40, resource.Of(1<<40))
	b.AddDep(a, b.AddTask("b", 1<<40, resource.Of(1<<40)))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.TotalWork(0), (Work{Hi: 1 << 17}); got != want {
		t.Errorf("TotalWork(0) = %v, want 2^81 %v", got, want)
	}
	if got := g.BLoad(a, 0).Float64() / g.TotalWork(0).Float64(); got != 1 {
		t.Errorf("BLoad(a, 0) / TotalWork(0) = %v, want 1", got)
	}
	if lb, err := g.MakespanLowerBound(resource.Of(1 << 40)); err != nil || lb != 1<<41 {
		t.Errorf("bound on capacity 2^40: %d, %v; want 2^41", lb, err)
	}
	if lb, err := g.MakespanLowerBound(resource.Of(1)); err == nil {
		t.Errorf("bound on capacity 1: %d, want an error (2^81 slots)", lb)
	}

	for _, tc := range []struct {
		name string
		dims int
		add  func(b *Builder)
		want string
	}{
		{"work", 2, func(b *Builder) {
			for range 5 { // 2^126 each in dimension 1
				b.AddTask("big", math.MaxInt64, resource.Of(1, math.MaxInt64))
			}
		}, `2^128 at task "big", dimension 1`},
		{"b-level", 1, func(b *Builder) {
			b.AddDep(b.AddTask("first", 1<<62, resource.Of(1)), b.AddTask("second", 1<<62, resource.Of(1)))
		}, `task "first"'s b-level`},
	} {
		b := NewBuilder(tc.dims)
		tc.add(b)
		if _, err := b.Build(); !errors.Is(err, ErrTooLarge) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Build = %v, want ErrTooLarge naming %s", tc.name, err, tc.want)
		}
	}
}

func TestMaxDemandMaxRuntime(t *testing.T) {
	g := diamond(t)
	if got := g.MaxDemand(); !got.Equal(resource.Of(2, 2)) {
		t.Errorf("MaxDemand = %v, want (2, 2)", got)
	}
	if got := g.MaxRuntime(); got != 5 {
		t.Errorf("MaxRuntime = %d, want 5", got)
	}
}

func TestChainBLevelMonotone(t *testing.T) {
	// Along any edge, parent b-level > child b-level (runtimes positive).
	b := NewBuilder(1)
	prev := b.AddTask("t0", 3, resource.Of(1))
	for i := 1; i < 20; i++ {
		cur := b.AddTask("t", int64(1+i%4), resource.Of(1))
		b.AddDep(prev, cur)
		prev = cur
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for id := 0; id < g.NumTasks(); id++ {
		for _, s := range g.Succ(TaskID(id)) {
			if g.BLevel(TaskID(id)) <= g.BLevel(s) {
				t.Fatalf("BLevel not monotone along %d -> %d", id, s)
			}
		}
	}
}
