package baselines

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/resource"
	"spear/internal/sched"
	"spear/internal/simenv"
)

// buildGraph assembles a DAG from (runtime, demand...) task specs and
// parent->child edges.
type taskSpec struct {
	runtime int64
	demand  []int64
}

func buildGraph(t *testing.T, dims int, specs []taskSpec, edges [][2]int) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder(dims)
	ids := make([]dag.TaskID, len(specs))
	for i, s := range specs {
		ids[i] = b.AddTask("t", s.runtime, resource.Of(s.demand...))
	}
	for _, e := range edges {
		b.AddDep(ids[e[0]], ids[e[1]])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func randomLayeredGraph(r *rand.Rand, n int) *dag.Graph {
	b := dag.NewBuilder(2)
	ids := make([]dag.TaskID, n)
	for i := 0; i < n; i++ {
		ids[i] = b.AddTask("t", r.Int63n(15)+1, resource.Of(r.Int63n(400)+50, r.Int63n(400)+50))
	}
	for i := 1; i < n; i++ {
		for k := 0; k < r.Intn(3); k++ {
			b.AddDep(ids[r.Intn(i)], ids[i])
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestAllBaselinesProduceValidSchedules(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	capacity := resource.Of(1000, 1000)
	schedulers := []sched.Scheduler{
		NewTetrisScheduler(),
		NewSJFScheduler(),
		NewCPScheduler(),
		NewRandomScheduler(7),
		NewGrapheneScheduler(),
	}
	for trial := 0; trial < 5; trial++ {
		g := randomLayeredGraph(r, 40)
		lb, err := g.MakespanLowerBound(capacity)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range schedulers {
			out, err := s.Schedule(g, cluster.Single(capacity))
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, s.Name(), err)
			}
			if err := sched.Validate(g, cluster.Single(capacity), out); err != nil {
				t.Errorf("trial %d %s: invalid schedule: %v", trial, s.Name(), err)
			}
			if out.Makespan < lb {
				t.Errorf("trial %d %s: makespan %d below lower bound %d", trial, s.Name(), out.Makespan, lb)
			}
		}
	}
}

func TestTetrisPrefersAlignment(t *testing.T) {
	// Two independent tasks; capacity (10, 2): task 0 demand (9, 1) aligns
	// much better than task 1 demand (1, 2). Tetris must start task 0 first.
	g := buildGraph(t, 2, []taskSpec{
		{runtime: 4, demand: []int64{9, 1}},
		{runtime: 4, demand: []int64{1, 2}},
	}, nil)
	e, err := simenv.New(g, resource.Of(10, 2), simenv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Tetris{}.Choose(e, e.LegalActions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.VisibleTask(a.Slot()); got != 0 {
		t.Errorf("Tetris chose task %d, want 0", got)
	}
}

func TestSJFPrefersShortest(t *testing.T) {
	g := buildGraph(t, 1, []taskSpec{
		{runtime: 9, demand: []int64{1}},
		{runtime: 2, demand: []int64{1}},
		{runtime: 5, demand: []int64{1}},
	}, nil)
	e, err := simenv.New(g, resource.Of(10), simenv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := SJF{}.Choose(e, e.LegalActions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.VisibleTask(a.Slot()); got != 1 {
		t.Errorf("SJF chose task %d, want 1 (runtime 2)", got)
	}
}

func TestCPPrefersLargestBLevel(t *testing.T) {
	// Task 1 heads a long chain; task 0 is standalone but longer by itself.
	g := buildGraph(t, 1, []taskSpec{
		{runtime: 6, demand: []int64{1}}, // b-level 6
		{runtime: 2, demand: []int64{1}}, // b-level 2+5 = 7
		{runtime: 5, demand: []int64{1}},
	}, [][2]int{{1, 2}})
	e, err := simenv.New(g, resource.Of(10), simenv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := CP{}.Choose(e, e.LegalActions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.VisibleTask(a.Slot()); got != 1 {
		t.Errorf("CP chose task %d, want 1 (b-level 7)", got)
	}
}

func TestCPTieBreakByChildren(t *testing.T) {
	// Equal b-levels, different child counts.
	g := buildGraph(t, 1, []taskSpec{
		{runtime: 3, demand: []int64{1}}, // 0: one child -> b-level 5
		{runtime: 3, demand: []int64{1}}, // 1: two children -> b-level 5
		{runtime: 2, demand: []int64{1}},
		{runtime: 2, demand: []int64{1}},
	}, [][2]int{{0, 2}, {1, 2}, {1, 3}})
	e, err := simenv.New(g, resource.Of(1), simenv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := CP{}.Choose(e, e.LegalActions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.VisibleTask(a.Slot()); got != 1 {
		t.Errorf("CP chose task %d, want 1 (more children)", got)
	}
}

func TestRandomRequiresRand(t *testing.T) {
	g := buildGraph(t, 1, []taskSpec{{runtime: 1, demand: []int64{1}}}, nil)
	e, err := simenv.New(g, resource.Of(1), simenv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Random{}).Choose(e, e.LegalActions(), nil); err == nil {
		t.Error("Random with nil rng: want error")
	}
}

func TestPoliciesProcessWhenNothingFits(t *testing.T) {
	// One running task hogging the cluster, one ready task that cannot fit.
	g := buildGraph(t, 1, []taskSpec{
		{runtime: 5, demand: []int64{8}},
		{runtime: 3, demand: []int64{8}},
	}, nil)
	e, err := simenv.New(g, resource.Of(10), simenv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(simenv.Action(0)); err != nil {
		t.Fatal(err)
	}
	legal := e.LegalActions()
	for _, p := range []simenv.Policy{Tetris{}, SJF{}, CP{}} {
		a, err := p.Choose(e, legal, nil)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if a != simenv.Process {
			t.Errorf("%s chose %d, want Process", p.Name(), a)
		}
	}
}

func TestOrderPolicyValidation(t *testing.T) {
	var p orderPolicy
	if err := p.setOrder([]dag.TaskID{0}, 2); err == nil {
		t.Error("short order accepted")
	}
	if err := p.setOrder([]dag.TaskID{0, 0}, 2); err == nil {
		t.Error("duplicate order accepted")
	}
	if err := p.setOrder([]dag.TaskID{0, 5}, 2); err == nil {
		t.Error("out-of-range order accepted")
	}
	if err := p.setOrder([]dag.TaskID{1, 0}, 2); err != nil {
		t.Errorf("valid order rejected: %v", err)
	}
}

func TestOrderPolicyFollowsOrder(t *testing.T) {
	g := buildGraph(t, 1, []taskSpec{
		{runtime: 2, demand: []int64{1}},
		{runtime: 2, demand: []int64{1}},
		{runtime: 2, demand: []int64{1}},
	}, nil)
	policy := &orderPolicy{name: "ordered"}
	if err := policy.setOrder([]dag.TaskID{2, 0, 1}, 3); err != nil {
		t.Fatal(err)
	}
	// Capacity 1: strictly serial; starts must follow the order.
	e, err := simenv.New(g, resource.Of(1), simenv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simenv.NewRolloutContext(policy).Rollout(e, nil); err != nil {
		t.Fatal(err)
	}
	s, err := e.Schedule(policy.Name())
	if err != nil {
		t.Fatal(err)
	}
	p := s.Placements // indexed by task ID
	if !(p[2].Start < p[0].Start && p[0].Start < p[1].Start) {
		t.Errorf("placements = %v, want start order 2 < 0 < 1", p)
	}
}

func TestTroublesomeTasks(t *testing.T) {
	g := buildGraph(t, 1, []taskSpec{
		{runtime: 10, demand: []int64{1}},
		{runtime: 5, demand: []int64{1}},
		{runtime: 2, demand: []int64{1}},
	}, nil)
	got := troublesomeTasks(g, 0.4) // cutoff 4
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("troublesome(0.4) = %v, want [0 1] by descending runtime", got)
	}
	if got := troublesomeTasks(g, 0.0); len(got) != 3 {
		t.Errorf("troublesome(0) = %v, want all tasks", got)
	}
}

func TestGrapheneBeatsNothingFancyOnChain(t *testing.T) {
	// On a pure chain every algorithm must achieve exactly the critical path.
	g := buildGraph(t, 1, []taskSpec{
		{runtime: 3, demand: []int64{5}},
		{runtime: 4, demand: []int64{5}},
		{runtime: 2, demand: []int64{5}},
	}, [][2]int{{0, 1}, {1, 2}})
	capacity := resource.Of(10)
	for _, s := range []sched.Scheduler{NewGrapheneScheduler(), NewTetrisScheduler(), NewCPScheduler(), NewSJFScheduler()} {
		out, err := s.Schedule(g, cluster.Single(capacity))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if out.Makespan != 9 {
			t.Errorf("%s makespan = %d, want 9", s.Name(), out.Makespan)
		}
	}
}

func TestGrapheneOrderDirectionsDiffer(t *testing.T) {
	// With several equal-runtime troublesome tasks, forward and backward
	// sequencing should generally disagree.
	g := buildGraph(t, 1, []taskSpec{
		{runtime: 5, demand: []int64{6}},
		{runtime: 5, demand: []int64{6}},
		{runtime: 5, demand: []int64{6}},
		{runtime: 5, demand: []int64{6}},
	}, nil)
	troublesome := troublesomeTasks(g, 0.8)
	fwd, err := grapheneOrder(g, resource.Of(10), troublesome, false)
	if err != nil {
		t.Fatal(err)
	}
	bwd, err := grapheneOrder(g, resource.Of(10), troublesome, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(fwd) != 4 || len(bwd) != 4 {
		t.Fatalf("orders: fwd=%v bwd=%v", fwd, bwd)
	}
	same := true
	for i := range fwd {
		if fwd[i] != bwd[i] {
			same = false
		}
	}
	if same {
		t.Errorf("forward and backward orders identical: %v", fwd)
	}
}

func TestGrapheneFourGroupOrder(t *testing.T) {
	// DAG: p(2) -> T(10) -> c(3); o(4) unrelated. Threshold 0.8 makes only
	// T troublesome. Order must be T, then its ancestors, then its
	// descendants, then others: [T, p, c, o].
	g := buildGraph(t, 1, []taskSpec{
		{runtime: 2, demand: []int64{1}},  // 0: parent
		{runtime: 10, demand: []int64{1}}, // 1: troublesome
		{runtime: 3, demand: []int64{1}},  // 2: child
		{runtime: 4, demand: []int64{1}},  // 3: other
	}, [][2]int{{0, 1}, {1, 2}})
	troublesome := troublesomeTasks(g, 0.8)
	if len(troublesome) != 1 || troublesome[0] != 1 {
		t.Fatalf("troublesome = %v", troublesome)
	}
	order, err := grapheneOrder(g, resource.Of(2), troublesome, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []dag.TaskID{1, 0, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestGrapheneGroupsSortedByRuntime(t *testing.T) {
	// Two ancestors of the troublesome task with different runtimes: the
	// longer one must come first within the P group.
	g := buildGraph(t, 1, []taskSpec{
		{runtime: 2, demand: []int64{1}},  // 0: short parent
		{runtime: 5, demand: []int64{1}},  // 1: long parent
		{runtime: 10, demand: []int64{1}}, // 2: troublesome
	}, [][2]int{{0, 2}, {1, 2}})
	order, err := grapheneOrder(g, resource.Of(2), troublesomeTasks(g, 0.8), false)
	if err != nil {
		t.Fatal(err)
	}
	want := []dag.TaskID{2, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPropertyBaselinesAlwaysValid(t *testing.T) {
	schedulers := []sched.Scheduler{
		NewTetrisScheduler(),
		NewSJFScheduler(),
		NewCPScheduler(),
		NewGrapheneScheduler(),
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomLayeredGraph(r, 5+r.Intn(30))
		capacity := resource.Of(500+r.Int63n(500), 500+r.Int63n(500))
		for _, s := range schedulers {
			out, err := s.Schedule(g, cluster.Single(capacity))
			if err != nil {
				return false
			}
			if err := sched.Validate(g, cluster.Single(capacity), out); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestLazySourceStreams: a rand.Rand over lazySource draws, through every
// method family (Int63-backed, Uint64-backed, float, permutation, bytes), what
// one over rand.NewSource draws, before and after a reseed; and the Random
// scheduler, the one policy that does draw, plans what it planned when its
// source was seeded up front.
func TestLazySourceStreams(t *testing.T) {
	draw := func(r *rand.Rand) []any {
		buf := make([]byte, 9)
		r.Read(buf)
		return []any{r.Int63(), r.Uint64(), r.Intn(1000), r.Int63n(1 << 40), r.Float64(), r.NormFloat64(), r.Perm(7), buf, r.Uint32()}
	}
	for _, seed := range []int64{0, 1, 7, -3, 1 << 40} {
		lazy, eager := rand.New(&lazySource{seed: seed}), rand.New(rand.NewSource(seed))
		if got, want := draw(lazy), draw(eager); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: lazy source drew %v, rand.NewSource %v", seed, got, want)
		}
		lazy.Seed(seed + 1)
		eager.Seed(seed + 1)
		if got, want := draw(lazy), draw(eager); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d after reseeding: lazy source drew %v, rand.NewSource %v", seed, got, want)
		}
	}

	g := randomLayeredGraph(rand.New(rand.NewSource(9)), 40)
	spec := cluster.Uniform(2, resource.Of(1000, 1000))
	for seed := int64(1); seed <= 5; seed++ {
		got, err := NewRandomScheduler(seed).Schedule(g, spec)
		if err != nil {
			t.Fatal(err)
		}
		e, err := simenv.NewCluster(g, spec, simenv.Config{Mode: simenv.NextCompletion})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := simenv.NewRolloutContext(Random{}).Rollout(e, rand.New(rand.NewSource(seed))); err != nil {
			t.Fatal(err)
		}
		want, err := e.Schedule("Random")
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan != want.Makespan || !reflect.DeepEqual(got.Placements, want.Placements) {
			t.Fatalf("seed %d: Random scheduler planned makespan %d, eagerly seeded %d", seed, got.Makespan, want.Makespan)
		}
	}
}
