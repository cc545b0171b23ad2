package workload

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"spear/internal/baselines"
	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/sched"
	"spear/internal/simenv"
)

// Small indirections keep the optimal-play test below readable.
func simenvNew(g *dag.Graph) (*simenv.Env, error) {
	return simenv.New(g, MotivatingCapacity(), simenv.Config{Mode: simenv.NextCompletion})
}

func simenvAction(i int) simenv.Action { return simenv.Action(i) }

func simenvProcess() simenv.Action { return simenv.Process }

func TestRandomDAGBasics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	cfg := DefaultRandomDAGConfig()
	g, err := RandomDAG(r, cfg)
	if err != nil {
		t.Fatalf("RandomDAG: %v", err)
	}
	if g.NumTasks() != 100 {
		t.Errorf("NumTasks = %d, want 100", g.NumTasks())
	}
	if g.Dims() != 2 {
		t.Errorf("Dims = %d, want 2", g.Dims())
	}
	for id := 0; id < g.NumTasks(); id++ {
		task := g.Task(dag.TaskID(id))
		if task.Runtime < 1 || task.Runtime > cfg.MaxRuntime {
			t.Errorf("task %d runtime %d out of [1, %d]", id, task.Runtime, cfg.MaxRuntime)
		}
		for d := 0; d < 2; d++ {
			if task.Demand[d] < 1 || task.Demand[d] > cfg.MaxDemand {
				t.Errorf("task %d demand %v out of range", id, task.Demand)
			}
		}
	}
	if !g.MaxDemand().FitsWithin(cfg.Capacity()) {
		t.Errorf("generated demand exceeds capacity")
	}
}

func TestRandomDAGLayerWidths(t *testing.T) {
	// Every non-entry task depends only on the previous layer; check layer
	// widths stay within bounds by reconstructing layers from depth.
	r := rand.New(rand.NewSource(2))
	cfg := DefaultRandomDAGConfig()
	g, err := RandomDAG(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	depth := make([]int, g.NumTasks())
	for _, id := range g.TopologicalOrder() {
		for _, p := range g.Pred(id) {
			if depth[p]+1 > depth[id] {
				depth[id] = depth[p] + 1
			}
		}
	}
	width := map[int]int{}
	maxDepth := 0
	for id := 0; id < g.NumTasks(); id++ {
		width[depth[id]]++
		if depth[id] > maxDepth {
			maxDepth = depth[id]
		}
	}
	for d := 0; d <= maxDepth; d++ {
		if width[d] < 1 || width[d] > cfg.MaxWidth {
			t.Errorf("layer %d width %d out of [1, %d]", d, width[d], cfg.MaxWidth)
		}
	}
	// All but possibly the last layer must respect MinWidth.
	for d := 0; d < maxDepth; d++ {
		if width[d] < cfg.MinWidth {
			t.Errorf("layer %d width %d below MinWidth %d", d, width[d], cfg.MinWidth)
		}
	}
}

func TestRandomDAGDeterministic(t *testing.T) {
	cfg := DefaultRandomDAGConfig()
	g1, err := RandomDAG(rand.New(rand.NewSource(5)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := RandomDAG(rand.New(rand.NewSource(5)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumTasks() != g2.NumTasks() || g1.CriticalPath() != g2.CriticalPath() || g1.TotalWork(0) != g2.TotalWork(0) {
		t.Errorf("same seed produced different graphs")
	}
}

func TestRandomDAGConfigValidation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	bad := []RandomDAGConfig{
		{NumTasks: 0, MinWidth: 2, MaxWidth: 5, Dims: 2, MaxRuntime: 20, MaxDemand: 20, MaxParents: 3},
		{NumTasks: 10, MinWidth: 5, MaxWidth: 2, Dims: 2, MaxRuntime: 20, MaxDemand: 20, MaxParents: 3},
		{NumTasks: 10, MinWidth: 2, MaxWidth: 5, Dims: 0, MaxRuntime: 20, MaxDemand: 20, MaxParents: 3},
		{NumTasks: 10, MinWidth: 2, MaxWidth: 5, Dims: 2, MaxRuntime: 0, MaxDemand: 20, MaxParents: 3},
		{NumTasks: 10, MinWidth: 2, MaxWidth: 5, Dims: 2, MaxRuntime: 20, MaxDemand: 0, MaxParents: 3},
		{NumTasks: 10, MinWidth: 2, MaxWidth: 5, Dims: 2, MaxRuntime: 20, MaxDemand: 20, MaxParents: 0},
	}
	for i, cfg := range bad {
		if _, err := RandomDAG(r, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestRandomBatch(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cfg := DefaultRandomDAGConfig()
	cfg.NumTasks = 20
	batch, err := RandomBatch(r, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 4 {
		t.Fatalf("len = %d, want 4", len(batch))
	}
}

// TestRandomBatchRejectsNegativeCount: a negative job count is an error,
// not a makeslice panic, and zero jobs is an empty batch.
func TestRandomBatchRejectsNegativeCount(t *testing.T) {
	cfg := DefaultRandomDAGConfig()
	if batch, err := RandomBatch(rand.New(rand.NewSource(3)), cfg, -1); err == nil {
		t.Fatalf("n = -1 accepted: %d jobs", len(batch))
	}
	batch, err := RandomBatch(rand.New(rand.NewSource(3)), cfg, 0)
	if err != nil || len(batch) != 0 {
		t.Fatalf("n = 0: %d jobs, %v", len(batch), err)
	}
}

func TestPropertyRandomDAGAlwaysSchedulable(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := DefaultRandomDAGConfig()
		cfg.NumTasks = 10 + r.Intn(40)
		g, err := RandomDAG(r, cfg)
		if err != nil {
			return false
		}
		s, err := baselines.NewCPScheduler().Schedule(g, cluster.Single(cfg.Capacity()))
		if err != nil {
			return false
		}
		return sched.Validate(g, cluster.Single(cfg.Capacity()), s) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMotivatingExampleStructure(t *testing.T) {
	g, err := MotivatingExample(100)
	if err != nil {
		t.Fatalf("MotivatingExample: %v", err)
	}
	if g.NumTasks() != 8 {
		t.Fatalf("NumTasks = %d, want 8", g.NumTasks())
	}
	if !g.MaxDemand().FitsWithin(MotivatingCapacity()) {
		t.Errorf("demand exceeds capacity")
	}
	// Critical path: gate (1) + big (100) + sink (1).
	if got := g.CriticalPath(); got != 102 {
		t.Errorf("CriticalPath = %d, want 102", got)
	}
}

func TestMotivatingExampleHeuristicsGet3T(t *testing.T) {
	g, err := MotivatingExample(100)
	if err != nil {
		t.Fatal(err)
	}
	capacity := MotivatingCapacity()
	for _, s := range []sched.Scheduler{
		baselines.NewTetrisScheduler(),
		baselines.NewSJFScheduler(),
		baselines.NewCPScheduler(),
		baselines.NewGrapheneScheduler(),
	} {
		out, err := s.Schedule(g, cluster.Single(capacity))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := sched.Validate(g, cluster.Single(capacity), out); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if out.Makespan != 301 {
			t.Errorf("%s makespan = %d, want 301 (~3T): the work-conserving trap should bind", s.Name(), out.Makespan)
		}
	}
}

func TestMotivatingExampleOptimalIs2T(t *testing.T) {
	// Hand-play the optimal action sequence to prove a ~2T schedule exists:
	// decline big6 at t=0 so that big5 can pair with big1.
	g, err := MotivatingExample(100)
	if err != nil {
		t.Fatal(err)
	}
	e, err := simenvNew(g)
	if err != nil {
		t.Fatal(err)
	}
	schedule := func(name string) {
		t.Helper()
		for i := 0; i < e.NumVisible(); i++ {
			if g.Task(e.VisibleTask(i)).Name == name {
				if err := e.Step(simenvAction(i)); err != nil {
					t.Fatalf("schedule %s: %v", name, err)
				}
				return
			}
		}
		t.Fatalf("task %s not among the %d visible ready tasks", name, e.NumVisible())
	}
	process := func() {
		t.Helper()
		if err := e.Step(simenvProcess()); err != nil {
			t.Fatalf("process: %v", err)
		}
	}

	schedule("gate5")
	schedule("gate7")
	schedule("big1")
	process() // -> t=1, gates done
	schedule("big5")
	process() // -> t=100, big1 done
	schedule("big6")
	process() // -> t=101, big5 done
	schedule("big7")
	process() // -> t=200, big6 done
	schedule("sinkA")
	process() // -> t=201, big7 + sinkA done
	schedule("sinkB")
	process() // -> t=202

	if !e.Done() {
		t.Fatal("episode not finished")
	}
	if got := e.Makespan(); got != 202 {
		t.Errorf("optimal play makespan = %d, want 202 (~2T)", got)
	}
}

func TestGenerateTraceMatchesPaperStats(t *testing.T) {
	trace, err := GenerateTrace(rand.New(rand.NewSource(2019)))
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Stats()
	if s.Jobs != 99 {
		t.Errorf("Jobs = %d, want 99", s.Jobs)
	}
	if s.MaxMaps > 29 || s.MaxReduces > 38 {
		t.Errorf("max task counts (%d, %d) exceed paper bounds (29, 38)", s.MaxMaps, s.MaxReduces)
	}
	for i, n := range s.MapTaskCounts {
		if n < 6 {
			t.Errorf("job %d has %d map tasks, want > 5", i, n)
		}
	}
	for i, n := range s.RedTaskCounts {
		if n < 6 {
			t.Errorf("job %d has %d reduce tasks, want > 5", i, n)
		}
	}
	// Medians should land near the paper's values (14, 17, 73, 32); allow
	// sampling slack.
	near := func(got, want, tol int64) bool { return got >= want-tol && got <= want+tol }
	if !near(int64(s.MedianMaps), 14, 4) {
		t.Errorf("median maps = %d, want ~14", s.MedianMaps)
	}
	if !near(int64(s.MedianReduces), 17, 5) {
		t.Errorf("median reduces = %d, want ~17", s.MedianReduces)
	}
	if !near(s.MedianMapRT, 73, 25) {
		t.Errorf("median map runtime = %d, want ~73", s.MedianMapRT)
	}
	if !near(s.MedianReduceRT, 32, 12) {
		t.Errorf("median reduce runtime = %d, want ~32", s.MedianReduceRT)
	}
}

// TestTraceGraphs: every trace job schedules on the trace capacity, and the
// schedule validates. FuzzGenerateTrace checks the jobs' shape.
func TestTraceGraphs(t *testing.T) {
	jobs, err := GenerateTrace(rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	spec := cluster.Single(TraceCapacity())
	for i, g := range jobs {
		s, err := baselines.NewTetrisScheduler().Schedule(g, spec)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if err := sched.Validate(g, spec, s); err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
}

// maxTraceRuntime bounds every runtime the generator draws: a stage mean is
// at most traceMaxMeanRT, a task scatters around it by a factor
// 1 + 0.25·NormFloat64(), and math/rand's NormFloat64 stays below 13 (its
// ziggurat tail is 3.44 + x with x² ≤ 2·63·ln 2, unless a uniform draw is
// exactly 0). Rounded, that is at most 599 slots.
const maxTraceRuntime = traceMaxMeanRT * (1 + 0.25*13)

// FuzzGenerateTrace: for every seed the trace builds and holds the paper's
// 99 jobs, each of at least 6 maps (its entries) and 6 reduces (its exits)
// where every reduce depends on exactly the maps, with runtimes in
// [1, maxTraceRuntime] and demands in [1, capacity/2].
func FuzzGenerateTrace(f *testing.F) {
	// Without the stage-mean cap, seed 31 draws a 784-slot task.
	for _, seed := range []int64{1, 2019, 31, math.MaxInt64} {
		f.Add(seed)
	}
	capacity := TraceCapacity()
	f.Fuzz(func(t *testing.T, seed int64) {
		jobs, err := GenerateTrace(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("seed %d: generated trace does not build: %v", seed, err)
		}
		if len(jobs) != traceJobCount {
			t.Fatalf("seed %d: %d jobs, want %d", seed, len(jobs), traceJobCount)
		}
		for j, g := range jobs {
			maps, exits := g.Entries(), g.Exits()
			if len(maps) < traceMinTasks || len(exits) < traceMinTasks || len(maps)+len(exits) != g.NumTasks() {
				t.Fatalf("seed %d job %d: %d entries and %d exits of %d tasks, want >= %d each and no other task",
					seed, j, len(maps), len(exits), g.NumTasks(), traceMinTasks)
			}
			for _, exit := range exits {
				if !slices.Equal(g.Pred(exit), maps) {
					t.Fatalf("seed %d job %d: reduce %d has parents %v, want the maps %v", seed, j, exit, g.Pred(exit), maps)
				}
			}
			for id := 0; id < g.NumTasks(); id++ {
				task := g.Task(dag.TaskID(id))
				if task.Runtime < 1 || float64(task.Runtime) > maxTraceRuntime {
					t.Fatalf("seed %d job %d: %s runtime %d, want 1..%g", seed, j, task.Name, task.Runtime, maxTraceRuntime)
				}
				for d, v := range task.Demand {
					if v < 1 || v > capacity[d]/2 {
						t.Fatalf("seed %d job %d: %s demand %v, want each in 1..%d", seed, j, task.Name, task.Demand, capacity[d]/2)
					}
				}
			}
		}
	})
}

// TestTraceDeterministic: two draws from one seed are the same jobs, byte
// for byte in their job documents.
func TestTraceDeterministic(t *testing.T) {
	draw := func() Trace {
		jobs, err := GenerateTrace(rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}
	t1, t2 := draw(), draw()
	for j := range t1 {
		var b1, b2 bytes.Buffer
		if err := SaveJob(&b1, t1[j], "job"); err != nil {
			t.Fatal(err)
		}
		if err := SaveJob(&b2, t2[j], "job"); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("job %d differs between two draws of one seed", j)
		}
	}
}
