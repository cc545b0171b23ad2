package workload

import (
	"bytes"
	"math/rand"
	"strings"
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
	r := rand.New(rand.NewSource(2019))
	trace, err := GenerateTrace(r, DefaultTraceConfig())
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
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

func TestTraceGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	cfg := DefaultTraceConfig()
	cfg.Jobs = 5
	trace, err := GenerateTrace(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	graphs, err := trace.Graphs()
	if err != nil {
		t.Fatalf("Graphs: %v", err)
	}
	if len(graphs) != 5 {
		t.Fatalf("len = %d", len(graphs))
	}
	for i, g := range graphs {
		// Map tasks are entries; reduces depend on every map.
		nm := len(g.Entries())
		nr := g.NumTasks() - nm
		if nm < 6 || nr < 6 {
			t.Errorf("job %d: %d maps, %d reduces", i, nm, nr)
		}
		for _, exit := range g.Exits() {
			if len(g.Pred(exit)) != nm {
				t.Errorf("job %d: reduce %d has %d parents, want %d", i, exit, len(g.Pred(exit)), nm)
			}
		}
		// Schedulable on the trace capacity.
		s, err := baselines.NewTetrisScheduler().Schedule(g, cluster.Single(trace.Capacity))
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if err := sched.Validate(g, cluster.Single(trace.Capacity), s); err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
}

func TestTraceSaveLoadRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	cfg := DefaultTraceConfig()
	cfg.Jobs = 3
	trace, err := GenerateTrace(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := LoadTrace(&buf)
	if err != nil {
		t.Fatalf("LoadTrace: %v", err)
	}
	if len(back.Jobs) != 3 || len(back.Capacity) != 2 {
		t.Fatalf("round trip lost data: %d jobs, %d dims", len(back.Jobs), len(back.Capacity))
	}
	if back.Jobs[0].Name != trace.Jobs[0].Name || len(back.Jobs[0].Tasks) != len(trace.Jobs[0].Tasks) {
		t.Errorf("round trip mismatch")
	}

	if _, err := LoadTrace(bytes.NewBufferString("{}")); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := LoadTrace(bytes.NewBufferString("not json")); err == nil {
		t.Error("bad json accepted")
	}
}

func TestLoadTraceRejectsHandEditedCorruption(t *testing.T) {
	// A hand-edited trace must fail at load time with a wrapped error, not
	// panic later in TraceJob.Graph / resource.Of.
	cases := []struct {
		name string
		body string
		want string
	}{
		{
			name: "unknown stage",
			body: `{"capacity":[10,10],"jobs":[{"name":"j","tasks":[
				{"name":"t","stage":"shuffle","runtimeSecs":5,"demand":[1,1]}]}]}`,
			want: "unknown stage",
		},
		{
			name: "zero runtime",
			body: `{"capacity":[10,10],"jobs":[{"name":"j","tasks":[
				{"name":"t","stage":"map","runtimeSecs":0,"demand":[1,1]}]}]}`,
			want: "runtime",
		},
		{
			name: "demand dimensionality mismatch",
			body: `{"capacity":[10,10],"jobs":[{"name":"j","tasks":[
				{"name":"t","stage":"map","runtimeSecs":5,"demand":[1]}]}]}`,
			want: "dimensions",
		},
		{
			name: "non-positive capacity",
			body: `{"capacity":[10,0],"jobs":[{"name":"j","tasks":[
				{"name":"t","stage":"map","runtimeSecs":5,"demand":[1,1]}]}]}`,
			want: "capacity",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadTrace(bytes.NewBufferString(tc.body))
			if err == nil {
				t.Fatal("corrupt trace accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The same shape with the corruption fixed loads fine.
	good := `{"capacity":[10,10],"jobs":[{"name":"j","tasks":[
		{"name":"t","stage":"map","runtimeSecs":5,"demand":[1,1]}]}]}`
	if _, err := LoadTrace(bytes.NewBufferString(good)); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestTraceStatsIgnoresUnknownStages(t *testing.T) {
	// Regression: Stats used to count every non-"map" stage as a reduce
	// task, so a corrupt stage inflated the reduce statistics.
	trace := &Trace{
		Capacity: []int64{10},
		Jobs: []TraceJob{{
			Name: "j",
			Tasks: []TraceTask{
				{Name: "m", Stage: "map", Runtime: 10, Demand: []int64{1}},
				{Name: "r", Stage: "reduce", Runtime: 20, Demand: []int64{1}},
				{Name: "x", Stage: "shuffle", Runtime: 999, Demand: []int64{1}},
			},
		}},
	}
	s := trace.Stats()
	if s.MaxMaps != 1 || s.MaxReduces != 1 {
		t.Errorf("counts = %d maps / %d reduces, want 1 / 1", s.MaxMaps, s.MaxReduces)
	}
	if len(s.RedRuntimes) != 1 || s.RedRuntimes[0] != 20 {
		t.Errorf("reduce runtimes = %v, want [20]", s.RedRuntimes)
	}
	if s.MaxMeanRedRT != 20 {
		t.Errorf("MaxMeanRedRT = %v, want 20 (unknown stage leaked in)", s.MaxMeanRedRT)
	}
}

func TestGenerateTraceValidation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if _, err := GenerateTrace(r, TraceConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestTraceDeterministic(t *testing.T) {
	cfg := DefaultTraceConfig()
	t1, err := GenerateTrace(rand.New(rand.NewSource(9)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := GenerateTrace(rand.New(rand.NewSource(9)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := t1.Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := t2.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("same seed produced different traces")
	}
}
