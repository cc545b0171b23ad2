package main

import (
	"fmt"
	"math"
	"sort"

	"spear/internal/stats"
)

// metricDef names one reported number. BENCHMARK.json lists the same names,
// units and directions; TestBenchmarkJSONMatchesCatalogue keeps them equal.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them, so each is defined for all five (see README.md, glossary):
// a "job" is one DAG handed to the system, a "sim" one simulated episode
// played to termination.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_ms_p50", "ms", "lower"},
	{"sims_per_s", "1/s", "higher"},
	{"makespan_ratio", "ratio", "lower"},
}

// perLayer is the traced pass: one block per package. A metric that a
// workload does not exercise reads 0 there, which is itself a prediction
// (nn.share is 0 on the pure-MCTS and serving workloads).
var perLayer = []metricDef{
	{"nn.probs_ns", "ns", "lower"},
	{"nn.forward_batch16_ns_per_row", "ns", "lower"},
	{"nn.backward_batch16_ns_per_row", "ns", "lower"},
	{"nn.macs_per_forward", "count", "lower"},
	{"nn.gmacs_per_s", "1/s", "higher"},
	{"nn.share", "ratio", "lower"},

	{"drl.policy_calls", "count", "lower"},
	{"drl.policy_ns_per_call", "ns", "lower"},
	{"drl.expander_calls", "count", "lower"},
	{"drl.expander_ns_per_call", "ns", "lower"},
	{"drl.encode_ns", "ns", "lower"},
	{"drl.self_share", "ratio", "lower"},
	{"drl.sample_s", "s", "lower"},
	{"drl.backprop_s", "s", "lower"},
	{"drl.apply_s", "s", "lower"},

	{"simenv.step_ns", "ns", "lower"},
	{"simenv.legal_ns", "ns", "lower"},
	{"simenv.clone_ns", "ns", "lower"},
	{"simenv.rollout_us", "us", "lower"},
	{"simenv.steps", "count", "lower"},
	{"simenv.clones", "count", "lower"},
	{"simenv.clone_reuse_ratio", "ratio", "higher"},
	{"simenv.share", "ratio", "lower"},

	{"cluster.earliest_start_ns", "ns", "lower"},
	{"cluster.earliest_start_any_ns", "ns", "lower"},
	{"cluster.fits_ns", "ns", "lower"},
	{"cluster.place_ns", "ns", "lower"},
	{"cluster.clone_ns", "ns", "lower"},
	{"cluster.placements", "count", "lower"},
	{"cluster.slot_advances", "count", "lower"},
	{"cluster.slot_reuse_ratio", "ratio", "higher"},
	{"cluster.share", "ratio", "lower"},

	{"mcts.iterations", "count", "lower"},
	{"mcts.expansions", "count", "lower"},
	{"mcts.rollouts", "count", "lower"},
	{"mcts.rollout_len_mean", "count", "lower"},
	{"mcts.forced_move_ratio", "ratio", "higher"},
	{"mcts.rollout_policy_share", "ratio", "lower"},
	{"mcts.tree_ns_per_iteration", "ns", "lower"},
	{"mcts.tree_share", "ratio", "lower"},
	{"mcts.tree_j2.sims_per_s", "1/s", "higher"},
	{"mcts.tree_j2.speedup", "ratio", "higher"},
	{"mcts.tree_j2.efficiency", "ratio", "higher"},
	{"mcts.tree_j2.makespan_mean", "slots", "lower"},
	{"mcts.root_k2.sims_per_s", "1/s", "higher"},
	{"mcts.root_k2.speedup", "ratio", "higher"},
	{"mcts.root_k2.efficiency", "ratio", "higher"},
	{"mcts.root_k2.makespan_mean", "slots", "lower"},
	{"mcts.tt.sims_per_s", "1/s", "higher"},
	{"mcts.tt.speedup", "ratio", "higher"},
	{"mcts.tt.makespan_mean", "slots", "lower"},
	{"mcts.tt.hit_ratio", "ratio", "higher"},
	{"mcts.serial.makespan_mean", "slots", "lower"},

	{"serve.plan_share", "ratio", "lower"},
	{"serve.pack_us_per_job", "us", "lower"},
	{"serve.replans", "count", "lower"},
	{"serve.queue_delay_mean_slots", "slots", "lower"},
	{"serve.validate_us_per_job", "us", "lower"},
	{"serve.marshal_ms", "ms", "lower"},

	{"baselines.cp_us_per_job", "us", "lower"},
	{"baselines.tetris_us_per_job", "us", "lower"},
	{"baselines.sjf_us_per_job", "us", "lower"},
	{"baselines.graphene_ms_per_job", "ms", "lower"},

	{"workload.gen_us_per_job", "us", "lower"},

	// Allocation is mostly warm-up (arena growth in the first job) and
	// follows the DAGs drawn, so across seeds it spreads by 15-30 %: too
	// wide to gate. It is reported on the traced pass's fixed prefix.
	{"runtime.allocs_per_job", "count", "lower"},
	{"runtime.alloc_kb_per_job", "KB", "lower"},

	{"attribution.coverage", "ratio", "higher"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// Coverage outside this band means the layer shares do not add up to the
// traced wall time, so the attribution cannot be trusted.
const (
	coverageMin = 0.85
	coverageMax = 1.15
)

// metrics maps a metric name to its measured value.
type metrics map[string]float64

// reading is the JSON form of one metric.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// readings renders m against defs: every def appears (0 when the workload
// has no value for it), and a value with no def is a bug in the benchmark.
func readings(defs []metricDef, m metrics) (map[string]reading, error) {
	out := make(map[string]reading, len(defs))
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", d.name, v)
		}
		out[d.name] = reading{Value: v, Unit: d.unit}
	}
	for name := range m {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in the catalogue", name)
		}
	}
	return out, nil
}

// median of a non-empty sample; 0 for an empty one.
func median(xs []float64) float64 {
	m, err := stats.Median(xs)
	if err != nil {
		return 0
	}
	return m
}

// mean of a non-empty sample; 0 for an empty one.
func mean[T int64 | float64](xs []T) float64 {
	m, err := stats.Mean(xs)
	if err != nil {
		return 0
	}
	return m
}

// ratio is a/b, 0 when b is 0: a count that never happened has no rate.
func ratio(a, b float64) float64 {
	if b == 0 { //spear:floateq — exact zero is the "never happened" sentinel
		return 0
	}
	return a / b
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is what
// the driver uses to judge spread. Fewer than two values have no spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	at := func(i int) float64 { // i in 1..3
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (c[j-1]*(4-delta) + c[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(median(xs)))
}
