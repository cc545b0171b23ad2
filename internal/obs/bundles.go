package obs

import (
	"fmt"
	"strings"
	"time"
)

// SimMetrics is the instrumentation bundle of the simulation substrate
// (simenv.Env). One bundle is shared by an episode and
// every clone made from it, so concurrent search workers update the
// same counters concurrently — all fields are lock-free atomics.
type SimMetrics struct {
	// SlotAdvances counts clock advances (Process steps). Like TasksPlaced
	// it is added to once per rollout or public Step, not once per step.
	SlotAdvances *Counter
	// TasksPlaced counts schedule actions committed into the cluster.
	TasksPlaced *Counter
	// EnvClones counts episode clones (one per rollout on the fast path).
	EnvClones *Counter
	// EnvCloneReuse counts clones that recycled an existing scratch episode
	// instead of allocating a fresh one (pool reuse hits).
	EnvCloneReuse *Counter
}

// NewSimMetrics registers the simulation metrics in r (a nil r gets a
// private registry) and returns the bundle.
func NewSimMetrics(r *Registry) *SimMetrics {
	if r == nil {
		r = NewRegistry()
	}
	return &SimMetrics{
		SlotAdvances:  r.Counter("spear_sim_slot_advances_total", "Clock advances (Process steps) across all episodes"),
		TasksPlaced:   r.Counter("spear_sim_tasks_placed_total", "Schedule actions committed into the cluster"),
		EnvClones:     r.Counter("spear_sim_env_clones_total", "Episode clones (one per rollout on the fast path)"),
		EnvCloneReuse: r.Counter("spear_sim_env_clone_reuse_total", "Episode clones that recycled a scratch env (pool reuse hits)"),
	}
}

// SearchMetrics is the instrumentation bundle of the MCTS search loop. The
// search adds each Schedule call's stats to it once, when the call returns.
type SearchMetrics struct {
	// Decisions counts committed scheduling decisions.
	Decisions *Counter
	// Iterations counts search iterations (selection+expansion+simulation).
	Iterations *Counter
	// Expansions counts nodes added to the search tree.
	Expansions *Counter
	// Rollouts counts simulations played to termination.
	Rollouts *Counter
	// ForcedMoves counts decisions with exactly one legal action, committed
	// without searching.
	ForcedMoves *Counter
	// PolicyCalls counts one-state policy evaluations asked of the expanders
	// and rollout contexts, PolicyCacheHits those answered from a context's
	// memo without running the network. A step with one legal action asks
	// for none.
	PolicyCalls     *Counter
	PolicyCacheHits *Counter
	// TreeDepth is the maximum tree depth reached by the latest Schedule
	// call (committed decisions + selection descent).
	TreeDepth *Gauge
	// RootWorkers is the root-parallelism degree of the latest Schedule call
	// (independent search trees per decision).
	RootWorkers *Gauge
	// TreeWorkers is the shared-tree parallelism degree of the latest
	// Schedule call (workers cooperating inside each tree).
	TreeWorkers *Gauge
	// MergeConflicts counts root workers whose locally best action disagreed
	// with the action chosen from the merged root statistics.
	MergeConflicts *Counter
	// VirtualLoss counts virtual-loss marks applied on shared-tree descent
	// paths (each is reverted on backup; the counter tracks applications).
	VirtualLoss *Counter
	// TTHits and TTMisses count transposition-table lookups at node
	// creation that found, respectively missed, an existing statistics
	// block for the node's canonical state hash.
	TTHits   *Counter
	TTMisses *Counter
	// TTEvictions counts transposition-table entries dropped by capacity
	// flushes.
	TTEvictions *Counter
	// SearchTime accumulates the wall-clock time of Schedule calls.
	SearchTime *Timer
}

// NewSearchMetrics registers the search metrics in r (a nil r gets a
// private registry) and returns the bundle.
func NewSearchMetrics(r *Registry) *SearchMetrics {
	if r == nil {
		r = NewRegistry()
	}
	return &SearchMetrics{
		Decisions:       r.Counter("spear_search_decisions_total", "Committed scheduling decisions"),
		Iterations:      r.Counter("spear_search_iterations_total", "MCTS iterations (selection, expansion, simulation, backprop)"),
		Expansions:      r.Counter("spear_search_expansions_total", "Nodes expanded into the search tree"),
		Rollouts:        r.Counter("spear_search_rollouts_total", "Simulations played to termination"),
		ForcedMoves:     r.Counter("spear_search_forced_moves_total", "Single-legal-action decisions committed without search"),
		PolicyCalls:     r.Counter("spear_search_policy_calls_total", "One-state policy evaluations requested by expanders and rollouts, steps with one legal action excluded"),
		PolicyCacheHits: r.Counter("spear_search_policy_cache_hits_total", "Policy evaluations answered from a context's memo without a network pass"),
		TreeDepth:       r.Gauge("spear_search_tree_depth", "Maximum tree depth of the latest Schedule call"),
		RootWorkers:     r.Gauge("spear_mcts_root_workers", "Root-parallel search trees per decision of the latest Schedule call"),
		TreeWorkers:     r.Gauge("spear_mcts_tree_workers", "Shared-tree workers per tree of the latest Schedule call"),
		MergeConflicts:  r.Counter("spear_mcts_merge_conflicts_total", "Root workers whose local best action lost the merged root vote"),
		VirtualLoss:     r.Counter("spear_mcts_virtual_loss_applied_total", "Virtual-loss marks applied on shared-tree descent paths"),
		TTHits:          r.Counter("spear_mcts_tt_hits_total", "Transposition-table lookups that found an existing statistics block"),
		TTMisses:        r.Counter("spear_mcts_tt_misses_total", "Transposition-table lookups that missed and created a statistics block"),
		TTEvictions:     r.Counter("spear_mcts_tt_evictions_total", "Transposition-table entries dropped by capacity flushes"),
		SearchTime:      r.Timer("spear_search_time", "Wall-clock time spent inside Schedule"),
	}
}

// SolverMetrics is the instrumentation bundle of the exact branch-and-bound
// solver. The solver is single-goroutine, so it accumulates locally and
// flushes once per Schedule call — the dfs hot loop carries no atomics.
type SolverMetrics struct {
	// NodesExplored counts visited branch-and-bound nodes.
	NodesExplored *Counter
	// IncumbentImprovements counts strict improvements over the incumbent.
	IncumbentImprovements *Counter
	// SolveTime accumulates the wall-clock time of Schedule calls.
	SolveTime *Timer
}

// NewSolverMetrics registers the solver metrics in r (a nil r gets a
// private registry) and returns the bundle.
func NewSolverMetrics(r *Registry) *SolverMetrics {
	if r == nil {
		r = NewRegistry()
	}
	return &SolverMetrics{
		NodesExplored:         r.Counter("spear_exact_nodes_explored_total", "Branch-and-bound nodes visited"),
		IncumbentImprovements: r.Counter("spear_exact_incumbent_improvements_total", "Strict improvements over the incumbent schedule"),
		SolveTime:             r.Timer("spear_exact_solve_time", "Wall-clock time spent inside Schedule"),
	}
}

// TrainMetrics is the instrumentation bundle of the DRL training pipeline.
type TrainMetrics struct {
	// Trajectories counts sampled episodes.
	Trajectories *Counter
	// Steps counts recorded decisions across all trajectories.
	Steps *Counter
	// GradUpdates counts optimizer steps.
	GradUpdates *Counter
	// PolicyCalls counts the policy evaluations the samplers asked for (one
	// per step that had more than one legal action) and PolicyCacheHits those
	// their memos answered; the rest ran the network.
	PolicyCalls     *Counter
	PolicyCacheHits *Counter
	// GradNormSum accumulates the L2 norm of each applied mean gradient.
	GradNormSum *FloatCounter
	// BaselineSpreadSum accumulates, per example batch, the spread
	// (max - min makespan) across the rollouts that form the baseline.
	BaselineSpreadSum *FloatCounter
	// BaselineSpreadCount counts the batches contributing to the spread sum.
	BaselineSpreadCount *Counter
	// SampleTime, BackpropTime and ApplyTime split the REINFORCE inner loop
	// into its three phases; PretrainTime and ReinforceTime time the two
	// pipeline stages end to end.
	SampleTime    *Timer
	BackpropTime  *Timer
	ApplyTime     *Timer
	PretrainTime  *Timer
	ReinforceTime *Timer

	reg *Registry
}

// NewTrainMetrics registers the training metrics in r (a nil r gets a
// private registry) and returns the bundle.
func NewTrainMetrics(r *Registry) *TrainMetrics {
	if r == nil {
		r = NewRegistry()
	}
	return &TrainMetrics{
		Trajectories:        r.Counter("spear_train_trajectories_total", "Sampled training episodes"),
		Steps:               r.Counter("spear_train_steps_total", "Recorded decisions across all trajectories"),
		GradUpdates:         r.Counter("spear_train_grad_updates_total", "Optimizer steps applied"),
		PolicyCalls:         r.Counter("spear_train_policy_calls_total", "Policy evaluations asked for while sampling, steps with one legal action excluded"),
		PolicyCacheHits:     r.Counter("spear_train_policy_cache_hits_total", "Sampling policy evaluations answered from a sampler's memo"),
		GradNormSum:         r.Float("spear_train_grad_norm_sum", "Accumulated L2 norms of applied mean gradients"),
		BaselineSpreadSum:   r.Float("spear_train_baseline_spread_sum", "Accumulated rollout-baseline makespan spreads (max - min)"),
		BaselineSpreadCount: r.Counter("spear_train_baseline_spread_batches_total", "Example batches contributing to the spread sum"),
		SampleTime:          r.Timer("spear_train_sample_time", "Wall-clock time sampling trajectories"),
		BackpropTime:        r.Timer("spear_train_backprop_time", "Wall-clock time in backpropagation"),
		ApplyTime:           r.Timer("spear_train_apply_time", "Wall-clock time applying optimizer updates"),
		PretrainTime:        r.Timer("spear_train_pretrain_time", "Wall-clock time of the supervised warm start"),
		ReinforceTime:       r.Timer("spear_train_reinforce_time", "Wall-clock time of REINFORCE training"),
		reg:                 r,
	}
}

// Snapshot renders the bundle's registry.
func (m *TrainMetrics) Snapshot() Snapshot { return m.reg.Snapshot() }

// ServeMetrics is the instrumentation bundle of the online serving loop
// (internal/serve): job lifecycle counters, queue/in-flight gauges, the
// simulated clock, the cross-tenant Jain fairness index, and the
// accumulated planning time. Everything is driven by the simulated clock —
// the serving loop never reads wall time, so metrics do not perturb replay
// determinism.
type ServeMetrics struct {
	// Arrivals counts jobs offered to the server, admitted or not.
	Arrivals *Counter
	// Admitted counts jobs accepted into the backlog by admission control.
	Admitted *Counter
	// Rejected counts jobs turned away by admission control.
	Rejected *Counter
	// Planned counts jobs whose schedule was committed onto the timeline.
	Planned *Counter
	// Completed counts jobs that finished all tasks.
	Completed *Counter
	// Replans counts planning passes triggered by arrival or completion
	// events (each pass may plan zero or more backlog jobs).
	Replans *Counter
	// PackProbes counts the earliest-start probes spent packing committed
	// plans onto the timeline; per planned job it stays flat as the backlog
	// grows.
	PackProbes *Counter
	// Backlog is the number of admitted jobs waiting to be planned.
	Backlog *Gauge
	// InFlight is the number of planned-but-unfinished jobs.
	InFlight *Gauge
	// Clock is the current simulated time in slots.
	Clock *Gauge
	// JainFairness is Jain's index over per-tenant mean makespan stretch,
	// updated at every completion: 1 = all tenants equally served.
	JainFairness *FloatGauge
	// PlanTime accumulates the wall-clock time of each planning call's
	// scheduler invocation.
	PlanTime *Timer
}

// NewServeMetrics registers the serving-loop metrics in r (a nil r gets a
// private registry) and returns the bundle.
func NewServeMetrics(r *Registry) *ServeMetrics {
	if r == nil {
		r = NewRegistry()
	}
	return &ServeMetrics{
		Arrivals:     r.Counter("spear_serve_arrivals_total", "Jobs offered to the serving loop"),
		Admitted:     r.Counter("spear_serve_admitted_total", "Jobs accepted into the backlog by admission control"),
		Rejected:     r.Counter("spear_serve_rejected_total", "Jobs turned away by admission control"),
		Planned:      r.Counter("spear_serve_planned_total", "Jobs whose schedule was committed onto the cluster timeline"),
		Completed:    r.Counter("spear_serve_completed_total", "Jobs that finished all tasks"),
		Replans:      r.Counter("spear_serve_replans_total", "Planning passes triggered by arrival/completion events"),
		PackProbes:   r.Counter("spear_serve_pack_probes_total", "Earliest-start probes spent packing committed plans onto the timeline"),
		Backlog:      r.Gauge("spear_serve_backlog_jobs", "Admitted jobs waiting to be planned"),
		InFlight:     r.Gauge("spear_serve_inflight_jobs", "Planned-but-unfinished jobs"),
		Clock:        r.Gauge("spear_serve_clock_slots", "Current simulated time in slots"),
		JainFairness: r.FloatGauge("spear_serve_jain_fairness", "Jain fairness index over per-tenant mean makespan stretch"),
		PlanTime:     r.Timer("spear_serve_plan_time", "Wall-clock time of the scheduler calls that plan jobs"),
	}
}

// ServeClassMetrics is the per-SLO-class slice of the serving-loop
// instrumentation. Metric names embed the sanitized class name
// (spear_serve_class_<class>_...), so every class shows up as its own
// series in the Prometheus exposition.
type ServeClassMetrics struct {
	// Arrivals, Rejected and Completed count the class's job lifecycle.
	Arrivals  *Counter
	Rejected  *Counter
	Completed *Counter
	// JCTSum accumulates job completion times (finish - arrival) in slots;
	// mean JCT = JCTSum / Completed.
	JCTSum *FloatCounter
	// QueueDelaySum accumulates queueing delays (plan start - arrival).
	QueueDelaySum *FloatCounter
	// StretchSum accumulates makespan stretches (JCT / planned makespan).
	StretchSum *FloatCounter
	// JainFairness is Jain's index over the class's per-job completion
	// times so far: how consistently the class is being served.
	JainFairness *FloatGauge
}

// NewServeClassMetrics registers the per-class serving metrics for the
// given SLO class in r (a nil r gets a private registry). The class name is
// sanitized into the metric names (SanitizeMetricName).
func NewServeClassMetrics(r *Registry, class string) *ServeClassMetrics {
	if r == nil {
		r = NewRegistry()
	}
	c := SanitizeMetricName(class)
	return &ServeClassMetrics{
		Arrivals:      r.Counter(fmt.Sprintf("spear_serve_class_%s_arrivals_total", c), "Jobs of this SLO class offered to the serving loop"),
		Rejected:      r.Counter(fmt.Sprintf("spear_serve_class_%s_rejected_total", c), "Jobs of this SLO class turned away by admission control"),
		Completed:     r.Counter(fmt.Sprintf("spear_serve_class_%s_completed_total", c), "Jobs of this SLO class that finished all tasks"),
		JCTSum:        r.Float(fmt.Sprintf("spear_serve_class_%s_jct_slots_sum", c), "Accumulated job completion times (finish - arrival) in slots"),
		QueueDelaySum: r.Float(fmt.Sprintf("spear_serve_class_%s_queue_delay_slots_sum", c), "Accumulated queueing delays (plan start - arrival) in slots"),
		StretchSum:    r.Float(fmt.Sprintf("spear_serve_class_%s_stretch_sum", c), "Accumulated makespan stretches (JCT / planned makespan)"),
		JainFairness:  r.FloatGauge(fmt.Sprintf("spear_serve_class_%s_jain_fairness", c), "Jain fairness index over this class's per-job completion times"),
	}
}

// SanitizeMetricName lowercases s and folds every character outside
// [a-z0-9] to '_', so arbitrary class/tenant names embed safely into the
// spear_[a-z0-9_]+ metric naming scheme.
func SanitizeMetricName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range strings.ToLower(s) {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "unnamed"
	}
	return b.String()
}

// TrainStats is the Go-struct rendering of TrainMetrics.
type TrainStats struct {
	// Trajectories, Steps, GradUpdates, PolicyCalls and PolicyCacheHits
	// mirror the counters.
	Trajectories    int64
	Steps           int64
	GradUpdates     int64
	PolicyCalls     int64
	PolicyCacheHits int64
	// MeanGradNorm is the mean L2 norm of the applied mean gradients.
	MeanGradNorm float64
	// MeanBaselineSpread is the mean per-batch makespan spread across the
	// rollouts that form the REINFORCE baseline.
	MeanBaselineSpread float64
	// Phase wall-clock totals.
	SampleTime    time.Duration
	BackpropTime  time.Duration
	ApplyTime     time.Duration
	PretrainTime  time.Duration
	ReinforceTime time.Duration
}

// Stats renders the bundle as a TrainStats value.
func (m *TrainMetrics) Stats() TrainStats {
	st := TrainStats{
		Trajectories:    m.Trajectories.Load(),
		Steps:           m.Steps.Load(),
		GradUpdates:     m.GradUpdates.Load(),
		PolicyCalls:     m.PolicyCalls.Load(),
		PolicyCacheHits: m.PolicyCacheHits.Load(),
		SampleTime:      m.SampleTime.Total(),
		BackpropTime:    m.BackpropTime.Total(),
		ApplyTime:       m.ApplyTime.Total(),
		PretrainTime:    m.PretrainTime.Total(),
		ReinforceTime:   m.ReinforceTime.Total(),
	}
	if n := st.GradUpdates; n > 0 {
		st.MeanGradNorm = m.GradNormSum.Load() / float64(n)
	}
	if n := m.BaselineSpreadCount.Load(); n > 0 {
		st.MeanBaselineSpread = m.BaselineSpreadSum.Load() / float64(n)
	}
	return st
}
