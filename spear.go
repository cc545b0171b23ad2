// Package spear is a Go implementation of Spear — "Optimized
// Dependency-Aware Task Scheduling with Deep Reinforcement Learning"
// (Hu, Tu and Li, ICDCS 2019).
//
// Spear schedules a job expressed as a DAG of tasks with heterogeneous,
// multi-dimensional resource demands onto a fixed-capacity cluster,
// minimizing the makespan. It searches the schedule space with Monte Carlo
// Tree Search whose expansion and rollout steps are guided by a trained
// deep-RL policy network, and is evaluated against the Tetris, SJF,
// critical-path and Graphene baselines — all included here.
//
// # Quick start
//
//	b := spear.NewJobBuilder(2) // CPU + memory
//	fetch := b.AddTask("fetch", 4, spear.Resources(300, 100))
//	parse := b.AddTask("parse", 6, spear.Resources(500, 700))
//	b.AddDep(fetch, parse)
//	job, err := b.Build()
//	// ...
//	net, err := models.Load("") // the checked-in policy, package spear/models
//	// ...
//	scheduler, err := spear.NewSpear(net, spear.DefaultFeatures(), spear.SpearConfig{})
//	// ...
//	schedule, err := scheduler.Schedule(job, spear.SingleMachine(spear.Resources(1000, 1000)))
//	fmt.Println(schedule.Makespan)
//
// Schedulers place jobs onto a ClusterSpec — one or more named machines
// with per-machine capacity vectors. SingleMachine reproduces the paper's
// single resource pool; UniformCluster spreads the same capacity over n
// machines, and each Placement then records the machine it runs on.
//
// The examples/ directory contains runnable programs and cmd/ the CLI
// tools, including cmd/spear-experiments which regenerates every table and
// figure of the paper's evaluation.
package spear

import (
	"context"
	"io"

	"spear/internal/anneal"
	"spear/internal/baselines"
	"spear/internal/cluster"
	"spear/internal/core"
	"spear/internal/dag"
	"spear/internal/drl"
	"spear/internal/exact"
	"spear/internal/mcts"
	"spear/internal/nn"
	"spear/internal/obs"
	"spear/internal/resource"
	"spear/internal/sched"
	"spear/internal/simenv"
	"spear/internal/workload"
)

// Core job-model types.
type (
	// Job is a DAG of tasks with runtimes and resource demands.
	Job = dag.Graph
	// JobBuilder incrementally assembles a Job.
	JobBuilder = dag.Builder
	// TaskID identifies a task within one Job.
	TaskID = dag.TaskID
	// Task is one unit of work.
	Task = dag.Task
	// Work is an exact 128-bit amount of resource-time, runtime x demand
	// summed, as Job.TotalWork and Job.BLoad report it.
	Work = dag.Work
	// Vector is a multi-dimensional resource amount.
	Vector = resource.Vector

	// ClusterSpec describes the machines a schedule targets: one capacity
	// vector per named machine. Build one with SingleMachine or
	// UniformCluster, or construct it literally for heterogeneous clusters.
	ClusterSpec = cluster.Spec
	// Machine is one machine of a ClusterSpec.
	Machine = cluster.Machine

	// Schedule is the result of scheduling one Job.
	Schedule = sched.Schedule
	// Placement is one task's start time — and, on multi-machine specs,
	// machine — within a Schedule.
	Placement = sched.Placement
	// MachineUtilization is one machine's share of a Utilization report.
	MachineUtilization = sched.MachineUtilization
	// Scheduler is any scheduling algorithm in this library.
	Scheduler = sched.Scheduler
	// ContextScheduler is a Scheduler whose search honors a context: on
	// cancellation it returns the best incumbent schedule found so far
	// together with an error wrapping ctx.Err(). The Spear, MCTS, Optimal
	// and Annealing schedulers all implement it.
	ContextScheduler = sched.ContextScheduler

	// SpearScheduler is the DRL-guided MCTS scheduler (the paper's
	// contribution), as returned by NewSpear.
	SpearScheduler = core.Spear
	// MCTSScheduler is the pure Monte Carlo Tree Search scheduler, as
	// returned by NewMCTS.
	MCTSScheduler = mcts.Scheduler
	// OptimalScheduler is the exact branch-and-bound solver, as returned by
	// NewOptimal.
	OptimalScheduler = exact.Solver
	// AnnealingScheduler is the simulated-annealing order search, as
	// returned by NewAnnealing.
	AnnealingScheduler = anneal.Scheduler

	// SearchStats reports what one MCTS/Spear Schedule call did: decisions,
	// iterations, expansions, rollouts, forced moves, tree depth, policy
	// evaluations and how many the memo answered, root and shared-tree
	// workers, merge conflicts, virtual losses, transposition
	// hits/misses/evictions, elapsed wall-clock and simulations per second.
	SearchStats = mcts.Stats
	// TrainStats summarizes an instrumented training run.
	TrainStats = obs.TrainStats
	// TrainMetrics instruments the training pipeline; build one with
	// NewTrainMetrics and set it on ModelConfig.Metrics or
	// ReinforceConfig.Metrics.
	TrainMetrics = obs.TrainMetrics
	// MetricsRegistry collects metrics from the schedulers that share it;
	// build one with NewMetricsRegistry and set it on SpearConfig.Obs,
	// MCTSConfig.Obs or OptimalScheduler.Obs.
	MetricsRegistry = obs.Registry
	// MetricSnapshot is a point-in-time rendering of a registry, exposable
	// as Go values or Prometheus text format (WritePrometheus).
	MetricSnapshot = obs.Snapshot
	// MetricSample is one metric inside a MetricSnapshot.
	MetricSample = obs.Sample

	// Network is the policy neural network.
	Network = nn.Network
	// Features describes how environment states are encoded for the
	// network.
	Features = drl.Features
	// EpochStats is one point of an RL learning curve.
	EpochStats = drl.EpochStats

	// SpearConfig parameterizes the Spear scheduler (search budgets,
	// exploration scale, rollouts per expansion, root/tree parallelism,
	// transpositions, seed). Rollouts always sample from the policy
	// distribution (§III-D).
	SpearConfig = core.Config
	// MCTSConfig parameterizes the pure MCTS scheduler, including
	// RootParallelism (independent trees), TreeParallelism (shared-tree
	// workers) and UseTranspositions.
	MCTSConfig = mcts.Config
	// ModelConfig parameterizes end-to-end policy training.
	ModelConfig = core.ModelConfig
	// PretrainConfig parameterizes supervised warm-start training.
	PretrainConfig = drl.PretrainConfig
	// ReinforceConfig parameterizes REINFORCE training.
	ReinforceConfig = drl.TrainConfig

	// RandomJobConfig parameterizes the random layered DAG generator used
	// in the paper's simulations.
	RandomJobConfig = workload.RandomDAGConfig
	// TraceStats summarizes trace jobs the way Fig. 9(a)/9(b) present them.
	TraceStats = workload.TraceStats
)

// Sentinel errors re-exported from the internal packages, so callers can
// classify failures with errors.Is without importing internals.
var (
	// ErrBudgetExceeded reports that NewOptimal's node budget ran out
	// before optimality was proven; the returned schedule is still the best
	// incumbent found.
	ErrBudgetExceeded = exact.ErrBudgetExceeded

	// Validation errors returned by Validate.
	ErrNilSchedule     = sched.ErrNilSchedule
	ErrMissingTask     = sched.ErrMissingTask
	ErrDuplicateTask   = sched.ErrDuplicateTask
	ErrNegativeStart   = sched.ErrNegativeStart
	ErrDependencyOrder = sched.ErrDependencyOrder
	ErrOverCapacity    = sched.ErrOverCapacity
	ErrWrongMakespan   = sched.ErrWrongMakespan
	ErrBadMachine      = sched.ErrBadMachine

	// ClusterSpec validation errors.
	ErrEmptySpec   = cluster.ErrEmptySpec
	ErrMixedDims   = cluster.ErrMixedDims
	ErrDuplicateID = cluster.ErrDuplicateID
	ErrNoMachine   = cluster.ErrNoMachine
)

// Job JSON format versions accepted by LoadJob.
const (
	// FormatSingle marks the original job document; a zero/absent format
	// means the same (the pre-versioning encoding).
	FormatSingle = workload.FormatSingle
	// FormatMulti marks a later job document version; its layout is the
	// same.
	FormatMulti = workload.FormatMulti
)

// NewJobBuilder returns a builder for jobs whose task demands have the
// given number of resource dimensions.
func NewJobBuilder(dims int) *JobBuilder { return dag.NewBuilder(dims) }

// Resources builds a resource vector from per-dimension values.
func Resources(values ...int64) Vector { return resource.Of(values...) }

// SingleMachine builds the one-machine cluster spec with the given
// capacity — the paper's single resource pool. Schedules against it are
// byte-identical to the library's pre-multi-machine output.
func SingleMachine(capacity Vector) ClusterSpec { return cluster.Single(capacity) }

// UniformCluster builds a spec of n identical machines, each with the given
// capacity (machines "m0" .. "m{n-1}").
func UniformCluster(n int, capacity Vector) ClusterSpec { return cluster.Uniform(n, capacity) }

// Validate checks a schedule against the three correctness invariants:
// dependency order, per-slot per-machine capacity, and machine indices
// within the spec.
func Validate(job *Job, spec ClusterSpec, s *Schedule) error {
	return sched.Validate(job, spec, s)
}

// DefaultFeatures returns the paper's featurization: a window of 15 ready
// tasks, a 20-slot occupancy horizon and 2 resource dimensions.
func DefaultFeatures() Features { return drl.DefaultFeatures() }

// NewSpear builds the DRL-guided MCTS scheduler around a trained network.
// The result also implements ContextScheduler and exposes cumulative
// metrics via Metrics().
func NewSpear(net *Network, feat Features, cfg SpearConfig) (*SpearScheduler, error) {
	return core.New(net, feat, cfg)
}

// NewMCTS builds the pure Monte Carlo Tree Search scheduler with random
// expansion and rollouts (the paper's "MCTS" arm). The result also
// implements ContextScheduler and exposes cumulative metrics via Metrics().
func NewMCTS(cfg MCTSConfig) *MCTSScheduler { return mcts.New(cfg) }

// NewTetris builds the multi-resource packing baseline.
func NewTetris() Scheduler { return baselines.NewTetrisScheduler() }

// NewSJF builds the shortest-job-first baseline.
func NewSJF() Scheduler { return baselines.NewSJFScheduler() }

// NewCP builds the largest-critical-path-first baseline.
func NewCP() Scheduler { return baselines.NewCPScheduler() }

// NewGraphene builds the Graphene baseline (troublesome-tasks-first with
// forward/backward virtual placement over four thresholds).
func NewGraphene() Scheduler { return baselines.NewGrapheneScheduler() }

// NewRandom builds the uniformly random scheduler (the classic-MCTS
// rollout policy run standalone).
func NewRandom(seed int64) Scheduler { return baselines.NewRandomScheduler(seed) }

// NewOptimal builds the exact branch-and-bound solver. It proves optimal
// makespans for small jobs (roughly a dozen tasks); Schedule returns
// ErrBudgetExceeded alongside its best incumbent when maxNodes (0 =
// default) runs out first. The result also implements ContextScheduler.
func NewOptimal(maxNodes int64) *OptimalScheduler { return exact.New(maxNodes) }

// NewAnnealing builds a simulated-annealing search over task priority
// orders — a classic local-search comparator. Being order-based and
// work-conserving, it cannot express Spear's "decline a ready task"
// decisions (see the motivating example). The result also implements
// ContextScheduler.
func NewAnnealing(iterations int, seed int64) *AnnealingScheduler {
	return anneal.New(anneal.Config{Iterations: iterations, Seed: seed})
}

// ScheduleContext schedules with s honoring ctx when s supports
// cancellation (see ContextScheduler) and falls back to a plain Schedule
// call otherwise, after a fast-path liveness check on ctx.
func ScheduleContext(ctx context.Context, s Scheduler, job *Job, spec ClusterSpec) (*Schedule, error) {
	return sched.ScheduleContext(ctx, s, job, spec)
}

// NewMetricsRegistry returns an empty metrics registry. Pass it to several
// scheduler configs to aggregate their counters into one snapshot.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTrainMetrics builds a training-metrics bundle registered in r (nil
// means a private registry).
func NewTrainMetrics(r *MetricsRegistry) *TrainMetrics { return obs.NewTrainMetrics(r) }

// TrainModel runs the full training pipeline of the paper (§IV): generate
// random training jobs, warm-start the policy by imitating the
// critical-path heuristic, then improve it with REINFORCE using a
// 20-rollout averaged baseline. progress may be nil.
func TrainModel(cfg ModelConfig, progress func(EpochStats)) (*Network, []EpochStats, Vector, error) {
	return core.BuildModel(cfg, progress)
}

// NewNetwork builds an untrained policy network with the paper's 256/32/32
// architecture for the given featurization, seeded deterministically.
func NewNetwork(feat Features, seed int64) (*Network, error) {
	return drl.DefaultNetwork(feat, newRand(seed))
}

// SaveModel serializes a trained network.
func SaveModel(w io.Writer, net *Network) error { return net.Save(w) }

// WriteCurveCSV writes a learning curve as CSV (for plotting Fig. 8(b)).
func WriteCurveCSV(w io.Writer, curve []EpochStats) error { return drl.WriteCurveCSV(w, curve) }

// LoadModel reads a network previously written by SaveModel.
func LoadModel(r io.Reader) (*Network, error) { return nn.Load(r) }

// DefaultRandomJobConfig returns the paper's simulation workload settings:
// 100 tasks, layer widths 2–5, normal runtimes/demands capped at 20, and a
// 20-slot-per-dimension cluster.
func DefaultRandomJobConfig() RandomJobConfig { return workload.DefaultRandomDAGConfig() }

// RandomJob generates one random layered job.
func RandomJob(seed int64, cfg RandomJobConfig) (*Job, error) {
	return workload.RandomDAG(newRand(seed), cfg)
}

// RandomJobs generates n random jobs from one seed.
func RandomJobs(seed int64, cfg RandomJobConfig, n int) ([]*Job, error) {
	return workload.RandomBatch(newRand(seed), cfg, n)
}

// ForkJoinJob generates a multi-stage fork-join DAG (classic pipeline
// benchmark from the DAG-scheduling literature).
func ForkJoinJob(seed int64, stages, width int) (*Job, error) {
	return workload.ForkJoin(newRand(seed), stages, width)
}

// OutTreeJob generates a rooted fan-out tree.
func OutTreeJob(seed int64, depth, branching int) (*Job, error) {
	return workload.OutTree(newRand(seed), depth, branching)
}

// InTreeJob generates an aggregation (reduction) tree.
func InTreeJob(seed int64, depth, branching int) (*Job, error) {
	return workload.InTree(newRand(seed), depth, branching)
}

// GaussianEliminationJob generates the dependency DAG of Gaussian
// elimination on an m x m matrix (the HEFT paper's structured benchmark).
func GaussianEliminationJob(seed int64, m int) (*Job, error) {
	return workload.GaussianElimination(newRand(seed), m)
}

// TopologyCapacity is the cluster capacity the fork-join, tree and Gaussian
// elimination jobs are sized for.
func TopologyCapacity() Vector { return workload.TopologyCapacity() }

// MotivatingExample reconstructs the paper's Fig. 3 job: the optimum is
// ~2T while every work-conserving heuristic lands at ~3T. T is the
// long-task runtime.
func MotivatingExample(longRuntime int64) (*Job, error) {
	return workload.MotivatingExample(longRuntime)
}

// MotivatingCapacity is the cluster capacity of the motivating example.
func MotivatingCapacity() Vector { return workload.MotivatingCapacity() }

// GenerateTrace produces the 99 jobs of the synthetic MapReduce trace,
// calibrated to the statistics the paper reports for its production trace.
// Every reduce task depends on every map task.
func GenerateTrace(seed int64) ([]*Job, error) {
	return workload.GenerateTrace(newRand(seed))
}

// TraceCapacity is the cluster capacity the trace jobs are sized for.
func TraceCapacity() Vector { return workload.TraceCapacity() }

// SummarizeTrace computes the Fig. 9(a)/9(b) statistics of trace jobs: a
// job's entries are its map tasks and the rest its reduces.
func SummarizeTrace(jobs []*Job) TraceStats { return workload.Trace(jobs).Stats() }

// Gantt renders a schedule as an ASCII chart.
func Gantt(s *Schedule, job *Job, width int) string { return s.Gantt(job, width) }

// WriteScheduleSVG renders a schedule as a standalone SVG Gantt chart.
func WriteScheduleSVG(w io.Writer, s *Schedule, job *Job, width, rowHeight int) error {
	return s.WriteSVG(w, job, width, rowHeight)
}

// SaveJob writes a job DAG as portable JSON.
func SaveJob(w io.Writer, job *Job, name string) error { return workload.SaveJob(w, job, name) }

// LoadJob reads a job written by SaveJob (or hand-authored JSON) and
// returns the validated DAG and its name.
func LoadJob(r io.Reader) (*Job, string, error) { return workload.LoadJob(r) }

// Utilization summarizes how densely a schedule packs the cluster.
type Utilization = sched.Utilization

// ComputeUtilization reports the per-dimension and mean resource
// utilization of a schedule, aggregate and per machine. A schedule that
// fails Validate is refused with Validate's error.
func ComputeUtilization(job *Job, spec ClusterSpec, s *Schedule) (Utilization, error) {
	return sched.ComputeUtilization(job, spec, s)
}

// CriticalPath returns the longest runtime path through a job — a lower
// bound on any schedule's makespan.
func CriticalPath(job *Job) int64 { return job.CriticalPath() }

// MakespanLowerBound returns max(critical path, per-dimension total work /
// capacity) — a simple lower bound on the optimal makespan.
func MakespanLowerBound(job *Job, capacity Vector) (int64, error) {
	return job.MakespanLowerBound(capacity)
}

// Ensure the facade's schedulers all satisfy the public interfaces.
var (
	_ ContextScheduler = (*SpearScheduler)(nil)
	_ ContextScheduler = (*MCTSScheduler)(nil)
	_ ContextScheduler = (*OptimalScheduler)(nil)
	_ ContextScheduler = (*AnnealingScheduler)(nil)
	_ Scheduler        = (*baselines.PolicyScheduler)(nil)
	_ Scheduler        = (*baselines.Graphene)(nil)
	_                  = simenv.DefaultWindow
)
