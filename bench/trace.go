package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math/rand"
	"time"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/drl"
	"spear/internal/mcts"
	"spear/internal/sched"
	"spear/internal/simenv"
)

// The benchmark measures layers from outside: it wraps the interfaces the
// product already accepts and records a span around each call. Spans live
// in a pre-sized slice and are written out when the run ends.

type spanKind uint8

const (
	spanJob spanKind = iota
	spanPolicy
	spanExpander
	spanPlan
	spanEpoch
)

var spanNames = [...]string{"job", "drl.policy", "drl.expander", "sched.plan", "train.epoch"}

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch; parent is an index into the span slice, -1 for a root.
//
//spear:packed
type span struct {
	start  int64
	end    int64
	parent int32
	job    int32
	kind   spanKind
}

// Span slice capacities: one Spear job makes ≈ 250 k policy spans; a serving
// segment or a few epochs make a thousand at most.
const (
	searchSpans = 1 << 20
	fewSpans    = 1 << 12
)

// tracer collects spans, call counters and a thinned sample of the states
// the search visits. It is used from one goroutine: every traced run is the
// serial engine.
type tracer struct {
	epoch   time.Time
	spans   []span
	dropped int
	job     int32
	current int32 // enclosing root span, -1 outside one

	policyCalls   int64
	policyNs      int64
	expanderCalls int64
	expanderNs    int64
	planNs        int64

	// captured keeps at most maxStates states: one in every captureEvery
	// expansions; when it fills up, every other state is dropped and the
	// stride doubles, so the sample stays spread over the whole run.
	captured     []*simenv.Env
	maxStates    int
	captureEvery int
	sinceCapture int

	plans []plannedJob // serve: the first plans, for the Validate probe
}

type plannedJob struct {
	g    *dag.Graph
	spec cluster.Spec
	plan *sched.Schedule
}

func newTracer(maxStates, maxSpans int) *tracer {
	return &tracer{
		epoch:        time.Now(),
		spans:        make([]span, 0, maxSpans),
		current:      -1,
		maxStates:    maxStates,
		captureEvery: 1,
	}
}

func (t *tracer) add(kind spanKind, began, ended time.Time) int32 {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{
		start:  int64(began.Sub(t.epoch)),
		end:    int64(ended.Sub(t.epoch)),
		parent: t.current,
		job:    t.job,
		kind:   kind,
	})
	return int32(len(t.spans) - 1)
}

// begin opens a root span (a job or an epoch) that the spans recorded until
// end name as their parent. Both do nothing on a nil tracer, so that the
// untraced pass runs the same code.
func (t *tracer) begin(kind spanKind, job int) int32 {
	if t == nil {
		return -1
	}
	t.job = int32(job)
	now := time.Now()
	t.current = t.add(kind, now, now)
	return t.current
}

func (t *tracer) end(idx int32) {
	if t == nil {
		return
	}
	t.current = -1
	if idx >= 0 {
		t.spans[idx].end = int64(time.Since(t.epoch))
	}
}

func (t *tracer) capture(e *simenv.Env) {
	t.sinceCapture++
	if t.sinceCapture < t.captureEvery || t.maxStates == 0 {
		return
	}
	t.sinceCapture = 0
	if len(t.captured) == t.maxStates {
		kept := t.captured[:0]
		for i := 0; i < len(t.captured); i += 2 {
			kept = append(kept, t.captured[i])
		}
		t.captured = kept
		t.captureEvery *= 2
	}
	t.captured = append(t.captured, e.Clone())
}

type spanRecord struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int32  `json:"parent"`
	Job      int32  `json:"job"`
}

// writeSpans appends the spans to w as JSON lines.
func (t *tracer) writeSpans(w io.Writer, workload string) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		rec := spanRecord{Workload: workload, Name: spanNames[s.kind], StartNs: s.start, EndNs: s.end, Parent: s.parent, Job: s.job}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// tracedAgent wraps the DRL rollout agent. It forwards ContextPolicy and
// BatchPolicy too, so the search keeps the allocation-free path it takes
// with the bare agent.
type tracedAgent struct {
	inner *drl.Agent
	tr    *tracer
}

var (
	_ simenv.ContextPolicy = (*tracedAgent)(nil)
	_ simenv.BatchPolicy   = (*tracedAgent)(nil)
)

func (a *tracedAgent) Name() string { return a.inner.Name() }

func (a *tracedAgent) observe(began time.Time, rows int) {
	ended := time.Now()
	a.tr.policyCalls += int64(rows)
	a.tr.policyNs += int64(ended.Sub(began))
	a.tr.add(spanPolicy, began, ended)
}

func (a *tracedAgent) Choose(e *simenv.Env, legal []simenv.Action, rng *rand.Rand) (simenv.Action, error) {
	began := time.Now()
	act, err := a.inner.Choose(e, legal, rng)
	a.observe(began, 1)
	return act, err
}

func (a *tracedAgent) NewContext() simenv.PolicyContext { return a.inner.NewContext() }

func (a *tracedAgent) ChooseCtx(pc simenv.PolicyContext, e *simenv.Env, legal []simenv.Action, rng *rand.Rand) (simenv.Action, error) {
	began := time.Now()
	act, err := a.inner.ChooseCtx(pc, e, legal, rng)
	a.observe(began, 1)
	return act, err
}

func (a *tracedAgent) NewBatchContext(maxRows int) simenv.BatchPolicyContext {
	return a.inner.NewBatchContext(maxRows)
}

func (a *tracedAgent) ChooseBatch(pc simenv.BatchPolicyContext, envs []*simenv.Env, legal [][]simenv.Action, rngs []*rand.Rand, out []simenv.Action) error {
	began := time.Now()
	err := a.inner.ChooseBatch(pc, envs, legal, rngs, out)
	a.observe(began, len(envs))
	return err
}

// countedPolicy wraps a plain rollout policy (the uniform-random default of
// pure MCTS). One call costs ≈ 10 ns, less than reading the clock, so it is
// counted and its time comes from a probe.
type countedPolicy struct {
	inner simenv.Policy
	tr    *tracer
}

func (p *countedPolicy) Name() string { return p.inner.Name() }

func (p *countedPolicy) Choose(e *simenv.Env, legal []simenv.Action, rng *rand.Rand) (simenv.Action, error) {
	p.tr.policyCalls++
	return p.inner.Choose(e, legal, rng)
}

// tracedExpander wraps an mcts.Expander. Every expansion is counted and
// offered to the state sample; only the DRL expander is timed.
type tracedExpander struct {
	inner mcts.Expander
	tr    *tracer
	timed bool
}

func (x *tracedExpander) Name() string { return x.inner.Name() }

func (x *tracedExpander) Next(e *simenv.Env, untried []simenv.Action, rng *rand.Rand) (int, error) {
	x.tr.capture(e)
	x.tr.expanderCalls++
	if !x.timed {
		return x.inner.Next(e, untried, rng)
	}
	began := time.Now()
	i, err := x.inner.Next(e, untried, rng)
	ended := time.Now()
	x.tr.expanderNs += int64(ended.Sub(began))
	x.tr.add(spanExpander, began, ended)
	return i, err
}

// maxKeptPlans bounds the plans kept for the Validate probe.
const maxKeptPlans = 256

// tracedScheduler wraps the planner the serving loop calls once per job.
type tracedScheduler struct {
	inner sched.Scheduler
	tr    *tracer
}

func (s *tracedScheduler) Name() string { return s.inner.Name() }

func (s *tracedScheduler) Schedule(g *dag.Graph, spec cluster.Spec) (*sched.Schedule, error) {
	began := time.Now()
	plan, err := s.inner.Schedule(g, spec)
	ended := time.Now()
	s.tr.planNs += int64(ended.Sub(began))
	s.tr.add(spanPlan, began, ended)
	if err == nil && len(s.tr.plans) < maxKeptPlans {
		s.tr.plans = append(s.tr.plans, plannedJob{g: g, spec: spec, plan: plan})
	}
	return plan, err
}
