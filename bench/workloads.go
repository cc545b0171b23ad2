package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"spear/internal/baselines"
	"spear/internal/cluster"
	"spear/internal/core"
	"spear/internal/dag"
	"spear/internal/drl"
	"spear/internal/mcts"
	"spear/internal/obs"
	"spear/internal/resource"
	"spear/internal/sched"
	"spear/internal/serve"
	"spear/internal/simenv"
	"spear/internal/workload"
)

// workloadDef is one row of the benchmark. run measures it end to end with
// no instrumentation; trace re-runs a fixed prefix with the wrappers
// installed and probes the layers.
type workloadDef struct {
	name  string
	why   string
	run   func(in *inputs, sz sizes, seconds float64) outcome
	trace func(in *inputs, sz sizes) (outcome, *tracer)
}

// outcome is what one pass over a workload produced.
type outcome struct {
	attempted int
	failed    int
	notes     []string // one line per failed check
	m         metrics
}

func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	if len(o.notes) < 20 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// check counts one operation and, when err is not nil, its failure.
func (o *outcome) check(what string, err error) {
	o.attempted++
	if err != nil {
		o.fail(1, "%s: %v", what, err)
	}
}

// add takes over the counts and notes of another pass (not its metrics).
func (o *outcome) add(other outcome) {
	o.attempted += other.attempted
	o.failed += other.failed
	o.notes = append(o.notes, other.notes...)
}

// more reports whether a measured loop starts its i-th operation: exactly n
// of them when n > 0, else for as long as the operation is expected to end
// no later than half an operation past seconds since began, and at least
// one. An operation that is started is finished, so no result depends on the
// clock; the half-operation rule keeps a run of long operations (a Spear
// job is 8-12 s) as close to seconds as a run of short ones.
func more(i, n int, began time.Time, seconds float64) bool {
	if n > 0 {
		return i < n
	}
	if i == 0 {
		return true
	}
	elapsed := time.Since(began).Seconds()
	return elapsed+elapsed/float64(2*i) <= seconds
}

var workloads = []workloadDef{
	{
		name:  "spear_dag100",
		why:   "Spear (DRL expander and rollouts, budget 50->25) on random 100-task DAGs, one machine: nn forward and drl encode do the work",
		run:   spearDag100.run,
		trace: spearDag100.trace,
	},
	{
		name:  "mcts_dag100",
		why:   "pure MCTS (random rollouts, budget 500->100) on the same DAGs: bypasses nn/drl, so simenv, cluster.Space and the tree do the work",
		run:   mctsDag100.run,
		trace: mctsDag100.trace,
	},
	{
		name:  "mcts_m4_dag100",
		why:   "same search on 4 machines: 4x branching in select/expand and cluster.Multi instead of Space; Spear panics on multi-machine specs",
		run:   mctsM4Dag100.run,
		trace: mctsM4Dag100.trace,
	},
	{
		name:  "serve_cp_m4",
		why:   "serving loop with the CP baseline on 4 machines at stable load 0.7: serve packing and the event heap, search and nn idle",
		run:   runServe,
		trace: traceServe,
	},
	{
		name:  "train_reinforce",
		why:   "REINFORCE epochs from the set-up network: batched backprop and RMSProp beside forward, one-slot env, 2-worker pool",
		run:   runTrain,
		trace: traceTrain,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// safely runs f and turns a panic into an error, so that one broken
// operation is counted as failed instead of ending the run.
func safely(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

// opCost is what one measured operation cost.
type opCost struct {
	seconds float64
	mallocs float64
	bytes   float64
}

func (c *opCost) add(o opCost) {
	c.seconds += o.seconds
	c.mallocs += o.mallocs
	c.bytes += o.bytes
}

// measure times f and counts what it allocated. ReadMemStats stops the
// world, so it stays outside the timed interval.
func measure(f func() error) (opCost, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	began := time.Now()
	err := safely(f)
	seconds := time.Since(began).Seconds()
	runtime.ReadMemStats(&after)
	return opCost{
		seconds: seconds,
		mallocs: float64(after.Mallocs - before.Mallocs),
		bytes:   float64(after.TotalAlloc - before.TotalAlloc),
	}, err
}

// endToEndMetrics fills the metrics every workload shares. jobMs holds one
// sample per job (or per batch of jobs, already divided).
func endToEndMetrics(in *inputs, jobs, sims float64, jobMs []float64, makespanRatio float64, cost opCost) metrics {
	return metrics{
		"setup_s":        in.setupS,
		"jobs_per_s":     ratio(jobs, cost.seconds),
		"job_ms_p50":     median(jobMs),
		"sims_per_s":     ratio(sims, cost.seconds),
		"makespan_ratio": makespanRatio,
	}
}

// allocMetrics is what the jobs of an untraced prefix allocated.
func allocMetrics(m metrics, jobs float64, cost opCost) {
	m["runtime.allocs_per_job"] = ratio(cost.mallocs, jobs)
	m["runtime.alloc_kb_per_job"] = ratio(cost.bytes/1024, jobs)
}

// ---- the three search workloads ----

// searcher is what core.Spear and mcts.Scheduler have in common.
type searcher interface {
	sched.Scheduler
	LastStats() mcts.Stats
	Metrics() obs.Snapshot
}

// searchCase is one search workload's shape.
type searchCase struct {
	spear         bool
	machines      int
	initialBudget int
	minBudget     int
}

var (
	spearDag100  = searchCase{spear: true, machines: 1, initialBudget: 50, minBudget: 25}
	mctsDag100   = searchCase{machines: 1, initialBudget: 500, minBudget: 100}
	mctsM4Dag100 = searchCase{machines: 4, initialBudget: 500, minBudget: 100}
)

// engine selects the search engine: the zero value is the serial one every
// gated number comes from.
type engine struct {
	rootK  int
	treeJ  int
	useTTs bool
}

func (c searchCase) spec(capacity resource.Vector) cluster.Spec {
	if c.machines == 1 {
		return cluster.Single(capacity)
	}
	return cluster.Uniform(c.machines, capacity)
}

// build returns the scheduler under test. With a nil tracer Spear comes
// from core.New, the constructor users call; with a tracer it is assembled
// the way core.New assembles it, around the wrapped agent and expander.
func (c searchCase) build(in *inputs, eng engine, tr *tracer) (searcher, error) {
	if c.spear && tr == nil {
		return core.New(in.net, in.feat, core.Config{
			InitialBudget:     c.initialBudget,
			MinBudget:         c.minBudget,
			Seed:              searchSeed,
			RootParallelism:   eng.rootK,
			TreeParallelism:   eng.treeJ,
			UseTranspositions: eng.useTTs,
		})
	}
	cfg := mcts.Config{
		InitialBudget:     c.initialBudget,
		MinBudget:         c.minBudget,
		Seed:              searchSeed,
		RootParallelism:   eng.rootK,
		TreeParallelism:   eng.treeJ,
		UseTranspositions: eng.useTTs,
	}
	if !c.spear {
		if tr != nil {
			cfg.Rollout = &countedPolicy{inner: baselines.Random{}, tr: tr}
			cfg.Expand = &tracedExpander{inner: mcts.RandomExpander{}, tr: tr}
		}
		return mcts.New(cfg), nil
	}
	rollout, err := drl.NewAgent(in.net, in.feat, false)
	if err != nil {
		return nil, err
	}
	expand, err := drl.NewAgent(in.net, in.feat, true)
	if err != nil {
		return nil, err
	}
	newExpander := func() mcts.Expander {
		return &tracedExpander{inner: drl.NewExpander(expand), tr: tr, timed: true}
	}
	cfg.Rollout = &tracedAgent{inner: rollout, tr: tr}
	cfg.Expand = newExpander()
	cfg.NewExpander = newExpander
	cfg.Window = in.feat.Window
	return mcts.NewNamed("Spear", cfg), nil
}

// checkSchedule is the output check of every scheduling operation.
func checkSchedule(g *dag.Graph, spec cluster.Spec, s *sched.Schedule) (lowerBound int64, err error) {
	if err := sched.Validate(g, spec, s); err != nil {
		return 0, err
	}
	lb, err := g.MakespanLowerBound(spec.Total())
	if err != nil {
		return 0, err
	}
	if s.Makespan < lb {
		return lb, fmt.Errorf("makespan %d is below the lower bound %d", s.Makespan, lb)
	}
	return lb, nil
}

// searchRun is the raw result of scheduling a list of jobs.
type searchRun struct {
	outcome
	jobMs     []float64
	makespans []int64
	ratios    []float64 // makespan / lower bound
	cost      opCost
	stats     mcts.Stats // summed over the jobs
}

// runJobs schedules jobs one after another, n of them or for seconds (see
// more).
func runJobs(s searcher, spec cluster.Spec, jobs []*dag.Graph, n int, seconds float64, tr *tracer) searchRun {
	var run searchRun
	began := time.Now()
	for i := 0; more(i, n, began, seconds); i++ {
		g := jobs[i%len(jobs)]
		var out *sched.Schedule
		call := func() error {
			var err error
			out, err = s.Schedule(g, spec)
			return err
		}
		root := tr.begin(spanJob, i)
		cost, err := measure(call)
		tr.end(root)
		run.attempted++
		if err != nil {
			run.fail(1, "job %d: %v", i, err)
			continue
		}
		lb, err := checkSchedule(g, spec, out)
		if err != nil {
			run.fail(1, "job %d: %v", i, err)
			continue
		}
		st := s.LastStats()
		run.stats.Decisions += st.Decisions
		run.stats.Iterations += st.Iterations
		run.stats.Expansions += st.Expansions
		run.stats.Rollouts += st.Rollouts
		run.stats.ForcedMoves += st.ForcedMoves
		run.stats.TTHits += st.TTHits
		run.stats.TTMisses += st.TTMisses
		run.cost.add(cost)
		run.jobMs = append(run.jobMs, cost.seconds*1e3)
		run.makespans = append(run.makespans, out.Makespan)
		run.ratios = append(run.ratios, float64(out.Makespan)/float64(lb))
	}
	return run
}

func (c searchCase) run(in *inputs, sz sizes, seconds float64) outcome {
	s, err := c.build(in, engine{}, nil)
	if err != nil {
		var o outcome
		o.check("build scheduler", err)
		return o
	}
	spec := c.spec(in.capacity)
	if !c.spear {
		// One untimed job grows the arena and the heap before the clock
		// starts. A Spear job is too long to spend on that, and set-up has
		// already run the network.
		warm := runJobs(s, spec, in.dags[len(in.dags)-1:], 1, 0, nil)
		if warm.failed > 0 {
			return warm.outcome
		}
	}
	run := runJobs(s, spec, in.dags, 0, seconds, nil)
	jobs := float64(len(run.jobMs))
	run.m = endToEndMetrics(in, jobs, float64(run.stats.Rollouts), run.jobMs, mean(run.ratios), run.cost)
	return run.outcome
}

// ---- serve_cp_m4 ----

const serveMachines = 4

// serveConfig is the serving run: a gold Poisson class and a bursty batch
// class whose offered load on four machines is about 0.7. The spear-serve
// default mix overloads the cluster (README.md, known defects).
func serveConfig(seed, horizon int64, dump bool) serve.Config {
	return serve.Config{
		Seed:          seed,
		Horizon:       horizon,
		Machines:      serveMachines,
		DumpSchedules: dump,
		Classes: []serve.ClassConfig{
			{Name: "gold", Arrival: workload.ArrivalConfig{Kind: workload.ArrivalPoisson, Mean: 400}},
			{Name: "batch", Arrival: workload.ArrivalConfig{Kind: workload.ArrivalGamma, Mean: 700, Shape: 0.5}},
		},
	}
}

// serveSegment is one serving run from an empty cluster to a drained one.
type serveSegment struct {
	log  *serve.RunLog
	snap obs.Snapshot
	cost opCost
}

func runSegment(cfg serve.Config, planner sched.Scheduler) (serveSegment, error) {
	var seg serveSegment
	var err error
	seg.cost, err = measure(func() error {
		srv, err := serve.New(cfg, planner, nil)
		if err != nil {
			return err
		}
		seg.log, err = srv.Run()
		seg.snap = srv.Metrics()
		return err
	})
	return seg, err
}

// checkConservation counts the jobs a serving run lost track of.
func checkConservation(o *outcome, sum serve.Summary) {
	o.attempted += int(sum.Arrivals)
	if lost := sum.Arrivals - sum.Admitted - sum.Rejected; lost != 0 {
		o.fail(int(abs64(lost)), "serve: arrivals %d != admitted %d + rejected %d", sum.Arrivals, sum.Admitted, sum.Rejected)
	}
	if lost := sum.Admitted - sum.Completed; lost != 0 {
		o.fail(int(abs64(lost)), "serve: admitted %d != completed %d after the drain", sum.Admitted, sum.Completed)
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// checkReplay runs the first tenth of a segment twice and compares the
// logs byte for byte.
func checkReplay(o *outcome, seed, horizon int64) {
	o.attempted++
	cfg := serveConfig(seed, horizon/10, true)
	var logs [2][]byte
	for i := range logs {
		err := safely(func() error {
			log, err := serve.Replay(cfg, baselines.NewCPScheduler(), nil)
			if err != nil {
				return err
			}
			logs[i], err = log.Marshal()
			return err
		})
		if err != nil {
			o.fail(1, "serve replay: %v", err)
			return
		}
	}
	if !bytes.Equal(logs[0], logs[1]) {
		o.fail(1, "serve replay: the two logs differ")
	}
}

func runServe(in *inputs, sz sizes, seconds float64) outcome {
	var o outcome
	var cost opCost
	var jobs, stretchSum float64
	// One untimed segment grows the heap before the clock starts.
	if _, err := runSegment(serveConfig(in.serveSeed-1, sz.serveHorizon, false), baselines.NewCPScheduler()); err != nil {
		o.check("serve warm-up segment", err)
		return o
	}
	began := time.Now()
	for i := 0; more(i, 0, began, seconds); i++ {
		seg, err := runSegment(serveConfig(in.serveSeed+int64(i), sz.serveHorizon, false), baselines.NewCPScheduler())
		if err != nil {
			o.check(fmt.Sprintf("serve segment %d", i), err)
			continue
		}
		sum := seg.log.Summary
		checkConservation(&o, sum)
		if sum.Completed == 0 {
			continue
		}
		cost.add(seg.cost)
		jobs += float64(sum.Completed)
		for _, cs := range sum.Classes {
			stretchSum += cs.MeanStretch * float64(cs.Completed)
		}
	}
	checkReplay(&o, in.serveSeed, sz.serveHorizon)
	// The clock is simulated, so a job has no wall time of its own: its time
	// is the segments' wall time over their jobs, one plan and one pack. (The
	// median over segments of the same quotient follows which bursts a
	// segment drew and spreads half as wide again across seeds.) CP plans
	// each job by playing one simulated episode, so sims = jobs.
	jobMs := []float64{ratio(cost.seconds*1e3, jobs)}
	o.m = endToEndMetrics(in, jobs, jobs, jobMs, ratio(stretchSum, jobs), cost)
	return o
}

// ---- train_reinforce ----

func trainConfig(in *inputs, sz sizes, tm *obs.TrainMetrics) drl.TrainConfig {
	return drl.TrainConfig{
		Epochs:        1,
		Rollouts:      sz.reinforceRollouts,
		BatchExamples: 4,
		Workers:       in.trainWorkers,
		Mode:          simenv.OneSlot,
		Metrics:       tm,
	}
}

// trainRun is the raw result of a number of REINFORCE epochs.
type trainRun struct {
	outcome
	epochS   []float64
	cost     opCost
	lastMean float64 // mean makespan of the last epoch
}

// runEpochs trains a clone of the set-up network, n epochs or for seconds
// (see more).
func runEpochs(in *inputs, sz sizes, n int, seconds float64, tm *obs.TrainMetrics, tr *tracer) trainRun {
	var run trainRun
	net := in.net.Clone()
	rng := rand.New(rand.NewSource(trainSeed))
	cfg := trainConfig(in, sz, tm)
	episodes := len(in.examples) * sz.reinforceRollouts
	minLB := int64(math.MaxInt64)
	for _, g := range in.examples {
		if lb, err := g.MakespanLowerBound(in.capacity); err == nil && lb < minLB {
			minLB = lb
		}
	}
	began := time.Now()
	for i := 0; more(i, n, began, seconds); i++ {
		var curve []drl.EpochStats
		epoch := func() error {
			var err error
			curve, err = drl.Train(net, in.feat, in.examples, in.capacity, cfg, rng, nil)
			return err
		}
		root := tr.begin(spanEpoch, i)
		cost, err := measure(epoch)
		tr.end(root)
		run.attempted += episodes
		if err != nil {
			run.fail(episodes, "epoch %d: %v", i, err)
			continue
		}
		if len(curve) != 1 || math.IsNaN(curve[0].MeanMakespan) || math.IsInf(curve[0].MeanMakespan, 0) {
			run.fail(episodes, "epoch %d: mean makespan is not finite", i)
			continue
		}
		if curve[0].MinMakespan < minLB {
			run.fail(1, "epoch %d: makespan %d is below every lower bound (%d)", i, curve[0].MinMakespan, minLB)
		}
		run.cost.add(cost)
		run.epochS = append(run.epochS, cost.seconds)
		run.lastMean = curve[0].MeanMakespan
	}
	return run
}

// meanLowerBound is the makespan_ratio denominator of the training set.
func meanLowerBound(in *inputs) float64 {
	var lbs []float64
	for _, g := range in.examples {
		if lb, err := g.MakespanLowerBound(in.capacity); err == nil {
			lbs = append(lbs, float64(lb))
		}
	}
	return mean(lbs)
}

func runTrain(in *inputs, sz sizes, seconds float64) outcome {
	run := runEpochs(in, sz, 0, seconds, nil, nil)
	epochs := float64(len(run.epochS))
	examples := float64(len(in.examples))
	jobMs := make([]float64, len(run.epochS))
	for i, s := range run.epochS {
		jobMs[i] = s * 1e3 / examples
	}
	// A job is one training example per epoch; a sim is one sampled episode.
	run.m = endToEndMetrics(in, epochs*examples, epochs*examples*float64(sz.reinforceRollouts),
		jobMs, ratio(run.lastMean, meanLowerBound(in)), run.cost)
	return run.outcome
}
