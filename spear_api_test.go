package spear_test

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"spear"
	"spear/internal/simenv"
)

// tinyModel is the smallest useful policy, trained once per test binary by
// trainTinyModel and shared by the tests and benchmarks that need one.
var tinyModel *spear.Network

const tinyWindow = 4

func tinyFeatures() spear.Features {
	return spear.Features{Window: tinyWindow, Horizon: 8, Dims: 2}
}

func trainTinyModel(t testing.TB) *spear.Network {
	t.Helper()
	if tinyModel != nil {
		return tinyModel
	}
	net, curve, _, err := spear.TrainModel(spear.ModelConfig{
		Feat:         tinyFeatures(),
		TrainJobs:    2,
		TasksPerJob:  8,
		PretrainCfg:  spear.PretrainConfig{Epochs: 3},
		ReinforceCfg: spear.ReinforceConfig{Epochs: 2, Rollouts: 2},
		Seed:         1,
	}, nil)
	if err != nil {
		t.Fatalf("TrainModel: %v", err)
	}
	if len(curve) != 2 {
		t.Fatalf("curve len = %d", len(curve))
	}
	tinyModel = net
	return net
}

func TestPublicAPIEndToEnd(t *testing.T) {
	// Build a job through the public API only.
	b := spear.NewJobBuilder(2)
	fetch := b.AddTask("fetch", 4, spear.Resources(300, 100))
	parse := b.AddTask("parse", 6, spear.Resources(500, 700))
	index := b.AddTask("index", 3, spear.Resources(400, 400))
	b.AddDep(fetch, parse)
	b.AddDep(fetch, index)
	job, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	capacity := spear.Resources(1000, 1000)

	net := trainTinyModel(t)
	scheduler, err := spear.NewSpear(net, tinyFeatures(), spear.SpearConfig{InitialBudget: 20, MinBudget: 5, Seed: 1})
	if err != nil {
		t.Fatalf("NewSpear: %v", err)
	}
	schedule, err := scheduler.Schedule(job, spear.SingleMachine(capacity))
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := spear.Validate(job, spear.SingleMachine(capacity), schedule); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if cp := spear.CriticalPath(job); schedule.Makespan < cp {
		t.Errorf("makespan %d below critical path %d", schedule.Makespan, cp)
	}
	if g := spear.Gantt(schedule, job, 40); !strings.Contains(g, "fetch") {
		t.Errorf("Gantt missing task name:\n%s", g)
	}
}

func TestAllPublicSchedulersAgreeOnChain(t *testing.T) {
	b := spear.NewJobBuilder(1)
	prev := b.AddTask("t0", 2, spear.Resources(5))
	for i := 1; i < 5; i++ {
		cur := b.AddTask("t", 2, spear.Resources(5))
		b.AddDep(prev, cur)
		prev = cur
	}
	job, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	capacity := spear.Resources(10)

	schedulers := []spear.Scheduler{
		spear.NewMCTS(spear.MCTSConfig{InitialBudget: 10, MinBudget: 2}),
		spear.NewTetris(),
		spear.NewSJF(),
		spear.NewCP(),
		spear.NewGraphene(),
		spear.NewRandom(1),
	}
	for _, s := range schedulers {
		out, err := s.Schedule(job, spear.SingleMachine(capacity))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if out.Makespan != 10 {
			t.Errorf("%s makespan = %d, want 10 (pure chain)", s.Name(), out.Makespan)
		}
	}
}

func TestModelSaveLoadThroughAPI(t *testing.T) {
	net := trainTinyModel(t)
	var buf bytes.Buffer
	if err := spear.SaveModel(&buf, net); err != nil {
		t.Fatalf("SaveModel: %v", err)
	}
	loaded, err := spear.LoadModel(&buf)
	if err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	if _, err := spear.NewSpear(loaded, tinyFeatures(), spear.SpearConfig{InitialBudget: 5, MinBudget: 2}); err != nil {
		t.Errorf("NewSpear with loaded model: %v", err)
	}
}

func TestWorkloadHelpers(t *testing.T) {
	cfg := spear.DefaultRandomJobConfig()
	cfg.NumTasks = 12
	job, err := spear.RandomJob(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if job.NumTasks() != 12 {
		t.Errorf("NumTasks = %d", job.NumTasks())
	}
	jobs, err := spear.RandomJobs(3, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Errorf("len = %d", len(jobs))
	}
	lb, err := spear.MakespanLowerBound(job, cfg.Capacity())
	if err != nil || lb <= 0 {
		t.Errorf("lower bound = %d, %v", lb, err)
	}

	mot, err := spear.MotivatingExample(100)
	if err != nil {
		t.Fatal(err)
	}
	if mot.NumTasks() != 8 {
		t.Errorf("motivating tasks = %d", mot.NumTasks())
	}

	tr, err := spear.GenerateTrace(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 99 {
		t.Errorf("trace jobs = %d", len(tr))
	}
}

func TestOptimalSolverThroughAPI(t *testing.T) {
	b := spear.NewJobBuilder(1)
	x := b.AddTask("x", 4, spear.Resources(1))
	y := b.AddTask("y", 4, spear.Resources(1))
	z := b.AddTask("z", 4, spear.Resources(1))
	_ = x
	_ = y
	_ = z
	job, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Three independent unit tasks on capacity 2: optimal is 8.
	out, err := spear.NewOptimal(0).Schedule(job, spear.SingleMachine(spear.Resources(2)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Makespan != 8 {
		t.Errorf("optimal = %d, want 8", out.Makespan)
	}
}

func TestJobJSONAndSVGThroughAPI(t *testing.T) {
	b := spear.NewJobBuilder(1)
	x := b.AddTask("x", 2, spear.Resources(4))
	y := b.AddTask("y", 3, spear.Resources(4))
	b.AddDep(x, y)
	job, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := spear.SaveJob(&buf, job, "mini"); err != nil {
		t.Fatal(err)
	}
	back, name, err := spear.LoadJob(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if name != "mini" || back.NumTasks() != 2 {
		t.Errorf("round trip: name=%q tasks=%d", name, back.NumTasks())
	}

	out, err := spear.NewCP().Schedule(job, spear.SingleMachine(spear.Resources(10)))
	if err != nil {
		t.Fatal(err)
	}
	var svg bytes.Buffer
	if err := spear.WriteScheduleSVG(&svg, out, job, 400, 14); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg.String(), "<svg") {
		t.Errorf("not an SVG")
	}
}

func TestUntrainedNetworkIsUsable(t *testing.T) {
	net, err := spear.NewNetwork(tinyFeatures(), 9)
	if err != nil {
		t.Fatal(err)
	}
	s, err := spear.NewSpear(net, tinyFeatures(), spear.SpearConfig{InitialBudget: 10, MinBudget: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := spear.DefaultRandomJobConfig()
	cfg.NumTasks = 10
	job, err := spear.RandomJob(11, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Schedule(job, spear.SingleMachine(cfg.Capacity()))
	if err != nil {
		t.Fatal(err)
	}
	if err := spear.Validate(job, spear.SingleMachine(cfg.Capacity()), out); err != nil {
		t.Error(err)
	}
}

// TestDegenerateMagnitudes runs every facade scheduler on inputs at the edge
// of int64: two 3-slot tasks of demand 5e18 on a machine of capacity
// MaxInt64 (only one fits at a time, and the fit test must not wrap), the
// same on two such machines (their total capacity overflows an int64), and
// a chain whose first task runs 2^46 slots (a grid that long cannot be
// allocated). The first must come back valid with makespan 6, the other two
// as errors; none may panic or take more than seconds. Spear's inputs stay
// finite and within [0, 1] at every step of an episode on each, though the
// wide job's work, 3e19, passes an int64.
func TestDegenerateMagnitudes(t *testing.T) {
	wide := spear.NewJobBuilder(1)
	wide.AddTask("a", 3, spear.Resources(5e18))
	wide.AddTask("b", 3, spear.Resources(5e18))
	long := spear.NewJobBuilder(1)
	long.AddDep(long.AddTask("long", 1<<46, spear.Resources(1)), long.AddTask("short", 1, spear.Resources(1)))
	jobs := make([]*spear.Job, 2)
	for i, b := range []*spear.JobBuilder{wide, long} {
		var err error
		if jobs[i], err = b.Build(); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name  string
		job   *spear.Job
		spec  spear.ClusterSpec
		valid bool
	}{
		{"wide/m1", jobs[0], spear.SingleMachine(spear.Resources(math.MaxInt64)), true},
		{"wide/m2", jobs[0], spear.UniformCluster(2, spear.Resources(math.MaxInt64)), false},
		{"long", jobs[1], spear.SingleMachine(spear.Resources(10)), false},
	}
	// A two-dimensional network on one-dimensional jobs, as spear-sim -job
	// runs a JSON job with its default model.
	net, err := spear.NewNetwork(tinyFeatures(), 9)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spear.NewSpear(net, tinyFeatures(), spear.SpearConfig{InitialBudget: 10, MinBudget: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	schedulers := []spear.Scheduler{
		sp,
		spear.NewMCTS(spear.MCTSConfig{InitialBudget: 10, MinBudget: 3}),
		spear.NewOptimal(0),
		spear.NewAnnealing(50, 1),
		spear.NewGraphene(),
		spear.NewTetris(),
		spear.NewCP(),
		spear.NewSJF(),
		spear.NewRandom(1),
	}
	for _, tc := range cases {
		encodedInRange(t, tc.name, tc.job, tc.spec)
		for _, s := range schedulers {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s on %s panicked: %v", s.Name(), tc.name, r)
					}
				}()
				began := time.Now()
				out, err := s.Schedule(tc.job, tc.spec)
				if d := time.Since(began); d > 10*time.Second {
					t.Errorf("%s on %s took %v", s.Name(), tc.name, d)
				}
				switch {
				case !tc.valid && err == nil:
					t.Errorf("%s on %s: makespan %d, want an error", s.Name(), tc.name, out.Makespan)
				case tc.valid && err != nil:
					t.Errorf("%s on %s: %v", s.Name(), tc.name, err)
				case tc.valid:
					if err := spear.Validate(tc.job, tc.spec, out); err != nil || out.Makespan != 6 {
						t.Errorf("%s on %s: makespan %d, Validate %v; want 6 and valid", s.Name(), tc.name, out.Makespan, err)
					}
				}
			}()
		}
	}
}

// encodedInRange walks one episode of job on spec as Spear's search steps it,
// taking the first legal action each step, and checks that every input
// tinyFeatures encodes is finite and within [0, 1]. An episode that cannot
// start or step is left to the schedulers' errors.
func encodedInRange(t *testing.T, name string, job *spear.Job, spec spear.ClusterSpec) {
	t.Helper()
	feat := tinyFeatures()
	e, err := simenv.NewCluster(job, spec, simenv.Config{Window: feat.Window, Mode: simenv.NextCompletion})
	if err != nil {
		return
	}
	for step := 0; !e.Done(); step++ {
		for i, v := range feat.Encode(e, nil) {
			if !(v >= 0 && v <= 1) {
				t.Errorf("%s: step %d: input %d is %v, want within [0, 1]", name, step, i, v)
			}
		}
		if e.Step(e.LegalActions()[0]) != nil {
			return
		}
	}
}
