// Package serve runs the online multi-job serving loop: a long-lived
// scheduler daemon in which jobs arrive over a simulated clock, pass
// admission control, and are planned one decision at a time onto a shared
// cluster timeline by any sched.Scheduler. This is the serving-mode
// counterpart of the paper's one-shot batch experiments (§V): the same
// algorithms, but driven by arrival and completion events instead of a
// fixed job list.
//
// The loop is fully deterministic: arrivals are drawn from seeded
// per-class streams, the clock is event-driven (no wall time is read), and
// planning consults only the scheduler and the occupancy grid. Running the
// same Config twice therefore produces byte-identical run logs, which is
// what the replay check in cmd/spear-serve verifies.
package serve

import (
	"cmp"
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/obs"
	"spear/internal/resource"
	"spear/internal/sched"
	"spear/internal/stats"
	"spear/internal/workload"
)

// ClassConfig describes one client class: a tenant submitting jobs of one
// SLO class through its own arrival process.
type ClassConfig struct {
	// Name is the SLO class name ("gold", "batch", ...). Must be unique
	// across the config's classes.
	Name string `json:"name"`
	// Tenant is the owning tenant; several classes may share one tenant.
	// Defaults to Name.
	Tenant string `json:"tenant,omitempty"`
	// Arrival is the class's inter-arrival process.
	Arrival workload.ArrivalConfig `json:"arrival"`
	// MaxJobs caps the number of jobs the class submits; 0 means the class
	// keeps submitting until the horizon.
	MaxJobs int `json:"maxJobs,omitempty"`
}

// Config parameterizes one serving run. The whole struct is embedded in
// the run log, so a log file is sufficient to re-execute its run.
type Config struct {
	// Seed drives every random stream of the run: the job-template
	// generator and one derived stream per class.
	Seed int64 `json:"seed"`
	// Horizon is the last slot at which a job may arrive; the loop then
	// drains until every admitted job has completed.
	Horizon int64 `json:"horizonSlots"`
	// MaxInFlight bounds the number of planned-but-unfinished jobs; further
	// admitted jobs queue in the backlog. 0 means unbounded.
	MaxInFlight int `json:"maxInFlight,omitempty"`
	// Algorithm names the scheduler driving the run. The serving loop
	// treats it as a label; cmd/spear-serve uses it to rebuild the same
	// scheduler when replaying a log.
	Algorithm string `json:"algorithm"`
	// Machines is the number of identical machines in the serving cluster;
	// 0 means 1 (a single box), keeping old configs byte-identical. Each
	// machine gets the template's full capacity vector.
	Machines int `json:"machines,omitempty"`
	// DumpSchedules embeds each committed plan's full schedule in its "plan"
	// log event. Off by default: schedules dominate log size.
	DumpSchedules bool `json:"dumpSchedules,omitempty"`
	// DecisionBudget bounds each planning call's wall-clock time; 0 means
	// unbounded. A budget is a safety valve for anytime schedulers: if it
	// ever fires, the committed plan is the search's incumbent, which can
	// differ across machines — replay byte-identity is only guaranteed
	// when planning finishes within the budget.
	DecisionBudget time.Duration `json:"decisionBudgetNanos,omitempty"`
	// SearchBudget is the per-decision iteration budget of search-based
	// algorithms (the "mcts" algorithm of cmd/spear-serve); 0 for the
	// non-search baselines. Recorded in the log so replay rebuilds the
	// identical search.
	SearchBudget int `json:"searchBudget,omitempty"`
	// Admission selects the admission-control policy.
	Admission AdmissionConfig `json:"admission"`
	// Classes lists the client classes. At least one is required.
	Classes []ClassConfig `json:"classes"`
	// Template configures the synthetic job pool arrivals draw from; the
	// zero value selects workload.DefaultTraceConfig.
	Template workload.TraceConfig `json:"template"`
}

// Event kinds in the event queue. Completions sort before arrivals at the
// same slot so freed capacity is visible to planning triggered by the
// arrival.
const (
	kindCompletion = iota
	kindArrival
)

// activeJob is one job instance moving through the serving loop.
type activeJob struct {
	name     string
	class    int
	arrival  int64
	graph    *dag.Graph
	start    int64 // committed plan offset on the shared timeline
	makespan int64 // scheduler-planned makespan, the stretch denominator
}

// event is one entry of the simulated-clock event queue.
type event struct {
	time int64
	kind int
	seq  int64
	job  *activeJob
}

// eventQueue is a min-heap ordered by (time, kind, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	if q[i].kind != q[j].kind {
		return q[i].kind < q[j].kind
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// edge is one end of a planned task's run: from time on, the plan's
// aggregate demand on machine is up by the task's demand, or down again.
// Sixteen bytes, because sorting them is most of what a sweep costs.
type edge struct {
	time    int64 // relative to the plan's offset
	machine int32
	task    int32 // the task that starts at time; ^task for one that ends there
}

// segment is a maximal run [start, end) of plan-relative slots over which the
// plan's aggregate demand on one machine is constant and not zero.
type segment struct {
	machine    int
	start, end int64
	demand     resource.Vector
}

// classState is the per-class runtime state.
type classState struct {
	cfg       ClassConfig
	proc      *workload.ArrivalProcess
	rng       *rand.Rand
	tenant    int // index into Server.tenants
	metrics   *obs.ServeClassMetrics
	generated int // arrivals drawn so far (scheduled or delivered)

	arrivals, rejected, completed int64
	jctSum, qdSum, stretchSum     float64
	jctSumSq                      float64 // Σ jct², beside jctSum, for the class's Jain index
}

// jain is Jain's index (Σx)² / (n·Σx²) over the completion times of the
// class's completed jobs, from the running sums. They accumulate in completion
// order, exactly as stats.JainFairness would sum the whole list, so the value
// is bit-identical to recomputing it — at O(1) instead of O(completed) per
// completion. Only meaningful once a job has completed.
func (c *classState) jain() float64 {
	if c.jctSumSq == 0 { // exact zero means every completion time was zero: perfectly fair
		return 1
	}
	return c.jctSum * c.jctSum / (float64(c.completed) * c.jctSumSq)
}

// tenantState aggregates stretch across all of a tenant's classes for the
// cross-tenant fairness index.
type tenantState struct {
	name       string
	stretchSum float64
	completed  int64
}

// Server is one serving run: construct with New, execute with Run.
type Server struct {
	cfg       Config
	scheduler sched.Scheduler
	admit     Admission
	spec      cluster.Spec
	space     *cluster.Multi
	templates []*dag.Graph
	classes   []*classState
	tenants   []*tenantState
	reg       *obs.Registry
	met       *obs.ServeMetrics

	events   eventQueue
	backlog  []*activeJob
	inflight int
	seq      int64
	clock    int64
	log      []LogEvent
	ran      bool

	// commit's scratch, reused from job to job.
	edges    []edge
	segments []segment
	demands  []int64 // the sweep's running sum, then the segments' demand vectors
}

// New validates cfg, generates the job-template pool from the seed, and
// returns a Server ready to Run. A nil reg gets a private registry.
func New(cfg Config, scheduler sched.Scheduler, reg *obs.Registry) (*Server, error) {
	if scheduler == nil {
		return nil, errors.New("serve: nil scheduler")
	}
	if cfg.Horizon < 1 {
		return nil, fmt.Errorf("serve: horizon %d must be >= 1", cfg.Horizon)
	}
	if cfg.MaxInFlight < 0 {
		return nil, fmt.Errorf("serve: maxInFlight %d must be >= 0", cfg.MaxInFlight)
	}
	if cfg.Machines < 0 {
		return nil, fmt.Errorf("serve: machines %d must be >= 0", cfg.Machines)
	}
	if len(cfg.Classes) == 0 {
		return nil, errors.New("serve: at least one class is required")
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = scheduler.Name()
	}
	if cfg.Template == (workload.TraceConfig{}) {
		cfg.Template = workload.DefaultTraceConfig()
	}
	admit, err := NewAdmission(cfg.Admission)
	if err != nil {
		return nil, err
	}

	trace, err := workload.GenerateTrace(rand.New(rand.NewSource(cfg.Seed)), cfg.Template)
	if err != nil {
		return nil, fmt.Errorf("serve: generating job templates: %w", err)
	}
	templates, err := trace.Graphs()
	if err != nil {
		return nil, fmt.Errorf("serve: building job templates: %w", err)
	}

	if reg == nil {
		reg = obs.NewRegistry()
	}
	machines := cfg.Machines
	if machines == 0 {
		machines = 1
	}
	spec := cluster.Uniform(machines, resource.Of(trace.Capacity...))
	s := &Server{
		cfg:       cfg,
		scheduler: scheduler,
		admit:     admit,
		spec:      spec,
		templates: templates,
		reg:       reg,
		met:       obs.NewServeMetrics(reg),
	}
	s.space, err = cluster.NewMulti(spec)
	if err != nil {
		return nil, err
	}

	// Each class owns the metric series its sanitized name spells; two
	// classes sharing one would count each other's jobs.
	classBySeries := make(map[string]string, len(cfg.Classes))
	tenantIdx := make(map[string]int)
	for i := range cfg.Classes {
		cc := cfg.Classes[i]
		if cc.Name == "" {
			return nil, fmt.Errorf("serve: class %d has no name", i)
		}
		series := obs.SanitizeMetricName(cc.Name)
		if prev, taken := classBySeries[series]; taken {
			if prev == cc.Name {
				return nil, fmt.Errorf("serve: duplicate class %q", cc.Name)
			}
			return nil, fmt.Errorf("serve: classes %q and %q share the metric series spear_serve_class_%s_*", prev, cc.Name, series)
		}
		classBySeries[series] = cc.Name
		if cc.MaxJobs < 0 {
			return nil, fmt.Errorf("serve: class %q: maxJobs %d must be >= 0", cc.Name, cc.MaxJobs)
		}
		if cc.Tenant == "" {
			cc.Tenant = cc.Name
		}
		proc, err := workload.NewArrivalProcess(cc.Arrival)
		if err != nil {
			return nil, fmt.Errorf("serve: class %q: %w", cc.Name, err)
		}
		ti, ok := tenantIdx[cc.Tenant]
		if !ok {
			ti = len(s.tenants)
			tenantIdx[cc.Tenant] = ti
			s.tenants = append(s.tenants, &tenantState{name: cc.Tenant})
		}
		s.classes = append(s.classes, &classState{
			cfg:     cc,
			proc:    proc,
			rng:     rand.New(rand.NewSource(classSeed(cfg.Seed, i))),
			tenant:  ti,
			metrics: obs.NewServeClassMetrics(reg, cc.Name),
		})
		s.cfg.Classes[i] = cc // keep the normalized tenant in the logged config
	}
	return s, nil
}

// classSeed derives one independent seed per class from the run seed using
// golden-ratio increments, the same idiom as the MCTS root workers.
func classSeed(seed int64, class int) int64 {
	return seed + int64(uint64(class+1)*0x9E3779B97F4A7C15)
}

// Metrics returns a snapshot of the run's metrics registry.
func (s *Server) Metrics() obs.Snapshot { return s.reg.Snapshot() }

// Run executes the serving loop to completion: arrivals stop at the
// horizon, the backlog and in-flight jobs drain, and the run log is
// returned. Run consumes the server and may be called only once.
func (s *Server) Run() (*RunLog, error) {
	if s.ran {
		return nil, errors.New("serve: Run may be called only once per Server")
	}
	s.ran = true
	for ci := range s.classes {
		s.scheduleArrival(ci, 0)
	}
	for len(s.events) > 0 {
		if err := s.step(); err != nil {
			return nil, err
		}
	}
	return s.finish(), nil
}

// step moves the clock to the next event, handles it and plans the backlog.
func (s *Server) step() error {
	ev := heap.Pop(&s.events).(*event)
	s.clock = ev.time
	s.met.Clock.Set(s.clock)
	// Drop the occupancy behind the clock once it is at least half of what
	// the grid tracks: the grid stays within twice the in-flight window, and
	// an Advance moves the whole grid, so doing it at every event would cost
	// a backlog's worth of copying per event. Nothing is ever placed before
	// the clock, so when the stale slots go changes no plan.
	if origin := s.space.Origin(); s.clock-origin >= (s.space.MaxBusy()-origin)/2 {
		s.space.Advance(s.clock)
	}
	switch ev.kind {
	case kindCompletion:
		s.complete(ev.job)
	default:
		s.arrive(ev.job)
		s.scheduleArrival(ev.job.class, ev.time)
	}
	return s.plan()
}

// scheduleArrival draws the class's next arrival after time from and
// enqueues it, unless the class hit its job cap or the horizon.
func (s *Server) scheduleArrival(ci int, from int64) {
	c := s.classes[ci]
	if c.cfg.MaxJobs > 0 && c.generated >= c.cfg.MaxJobs {
		return
	}
	t := from + c.proc.NextGap(c.rng)
	if t > s.cfg.Horizon {
		return
	}
	tmpl := c.rng.Intn(len(s.templates))
	job := &activeJob{
		name:    fmt.Sprintf("%s-%d", c.cfg.Name, c.generated),
		class:   ci,
		arrival: t,
		graph:   s.templates[tmpl],
	}
	c.generated++
	s.push(&event{time: t, kind: kindArrival, seq: s.nextSeq(), job: job})
}

func (s *Server) push(ev *event) { heap.Push(&s.events, ev) }

func (s *Server) nextSeq() int64 {
	s.seq++
	return s.seq
}

// arrive runs admission control on one arriving job.
func (s *Server) arrive(job *activeJob) {
	c := s.classes[job.class]
	s.met.Arrivals.Inc()
	c.metrics.Arrivals.Inc()
	c.arrivals++
	ev := LogEvent{Time: s.clock, Job: job.name, Class: c.cfg.Name, Tenant: c.cfg.Tenant}
	if !s.admit.Admit(s.clock) {
		s.met.Rejected.Inc()
		c.metrics.Rejected.Inc()
		c.rejected++
		ev.Kind = "reject"
		s.log = append(s.log, ev)
		return
	}
	s.met.Admitted.Inc()
	s.backlog = append(s.backlog, job)
	ev.Kind = "arrive"
	s.log = append(s.log, ev)
}

// plan is the per-event planning pass: it pulls backlog jobs in FIFO order
// while the in-flight cap allows, plans each with the scheduler, and
// commits the plan onto the shared timeline.
func (s *Server) plan() error {
	s.met.Replans.Inc()
	for len(s.backlog) > 0 && (s.cfg.MaxInFlight == 0 || s.inflight < s.cfg.MaxInFlight) {
		job := s.backlog[0]
		s.backlog[0] = nil // the array outlives the pop; it must not keep the job alive
		s.backlog = s.backlog[1:]
		if err := s.planJob(job); err != nil {
			return err
		}
	}
	s.met.Backlog.Set(int64(len(s.backlog)))
	return nil
}

// planJob asks the scheduler for a (relative) schedule of one job, packs
// it at the earliest offset that fits the current occupancy, and commits.
func (s *Server) planJob(job *activeJob) error {
	ctx := context.Background()
	if s.cfg.DecisionBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DecisionBudget)
		defer cancel()
	}
	plan, err := sched.ScheduleContext(ctx, s.scheduler, job.graph, s.spec)
	if plan == nil {
		return fmt.Errorf("serve: scheduling %s: %w", job.name, err)
	}
	// An exhausted budget returns the search's best incumbent alongside the
	// context error; the incumbent is a complete schedule, so use it.
	if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		return fmt.Errorf("serve: scheduling %s: %w", job.name, err)
	}
	if err := sched.Validate(job.graph, s.spec, plan); err != nil {
		return fmt.Errorf("serve: %s produced an invalid plan for %s: %w", s.scheduler.Name(), job.name, err)
	}
	t0, err := s.commit(job.graph, plan)
	if err != nil {
		return fmt.Errorf("serve: packing %s: %w", job.name, err)
	}
	job.start = t0
	job.makespan = plan.Makespan

	s.inflight++
	s.met.Planned.Inc()
	s.met.InFlight.Set(int64(s.inflight))
	s.met.PlanTime.Observe(plan.Elapsed)
	c := s.classes[job.class]
	qd := t0 - job.arrival
	c.qdSum += float64(qd)
	c.metrics.QueueDelaySum.Add(float64(qd))
	s.push(&event{time: t0 + plan.Makespan, kind: kindCompletion, seq: s.nextSeq(), job: job})
	ev := LogEvent{
		Time: s.clock, Kind: "plan", Job: job.name,
		Class: c.cfg.Name, Tenant: c.cfg.Tenant,
		Start: t0, Makespan: plan.Makespan, QueueDelay: qd,
	}
	if s.cfg.DumpSchedules {
		ev.Schedule = plan
	}
	s.log = append(s.log, ev)
	return nil
}

// commit places the plan at the earliest offset >= clock at which all of it
// fits the occupancy grid, and returns that offset. Validate has shown that
// the plan alone stays within every machine's capacity, so the plan fits at
// an offset exactly when each segment of its profile fits there on top of
// what the grid holds. The offset is the fix-point of one rule: a segment
// whose earliest start lies after offset+start moves the offset up to it,
// which skips only offsets at which that segment collides; once every
// segment has fitted since the last move, the offset is the minimal one. It
// never passes MaxBusy, where the grid is empty and the plan fits.
func (s *Server) commit(g *dag.Graph, plan *sched.Schedule) (int64, error) {
	segs := s.profile(g, plan)
	t0, probes := s.clock, int64(0)
	for i, fitted := 0, 0; fitted < len(segs); i = (i + 1) % len(segs) {
		seg := segs[i]
		e, err := s.space.EarliestStart(seg.machine, t0+seg.start, seg.demand, seg.end-seg.start)
		if err != nil {
			return 0, err
		}
		probes++
		fitted++
		if e > t0+seg.start {
			t0, fitted = e-seg.start, 1 // this segment fits at e; the others are open again
		}
	}
	s.met.PackProbes.Add(probes)
	for i, p := range plan.Placements {
		task := g.Task(p.Task)
		err := s.space.Place(p.Machine, t0+p.Start, task.Demand, task.Runtime)
		if err == nil {
			continue
		}
		for _, q := range plan.Placements[:i] {
			tq := g.Task(q.Task)
			err = errors.Join(err, s.space.Remove(q.Machine, t0+q.Start, tq.Demand, tq.Runtime))
		}
		return 0, fmt.Errorf("the plan's profile fits at offset %d, task %d does not: %w", t0, p.Task, err)
	}
	return t0, nil
}

// profile sweeps the plan's placements into its segments, ordered by machine
// and start. The result lives in the server's scratch until the next call.
func (s *Server) profile(g *dag.Graph, plan *sched.Schedule) []segment {
	s.edges = s.edges[:0]
	for _, p := range plan.Placements {
		task := g.Task(p.Task)
		s.edges = append(s.edges,
			edge{p.Start, int32(p.Machine), int32(p.Task)},
			edge{p.Start + task.Runtime, int32(p.Machine), ^int32(p.Task)})
	}
	slices.SortFunc(s.edges, func(a, b edge) int {
		return cmp.Or(cmp.Compare(a.machine, b.machine), cmp.Compare(a.time, b.time))
	})
	// The first dims words are the running sum; a segment's demand is a copy
	// of it appended behind. At most one segment opens per edge, and sized
	// for that up front the array never moves under the vectors cut from it.
	dims := s.space.Dims()
	s.demands = slices.Grow(s.demands[:0], (len(s.edges)+1)*dims)[:dims]
	sum := resource.Vector(s.demands)
	clear(sum)
	s.segments = s.segments[:0]
	for i, e := range s.edges {
		task, sign := e.task, int64(1)
		if task < 0 {
			task, sign = ^task, -1
		}
		for d, need := range g.Task(dag.TaskID(task)).Demand {
			sum[d] += sign * need
		}
		if i+1 == len(s.edges) || s.edges[i+1].machine != e.machine {
			continue // the machine's last task has ended: sum is zero again
		}
		next := s.edges[i+1].time
		if next == e.time || sum.IsZero() {
			continue
		}
		if n := len(s.segments); n > 0 && s.segments[n-1].machine == int(e.machine) &&
			s.segments[n-1].end == e.time && s.segments[n-1].demand.Equal(sum) {
			s.segments[n-1].end = next // one task ended where its like began
			continue
		}
		s.demands = append(s.demands, sum...)
		s.segments = append(s.segments, segment{int(e.machine), e.time, next, s.demands[len(s.demands)-dims:]})
	}
	return s.segments
}

// complete retires one finished job and updates the SLO metrics.
func (s *Server) complete(job *activeJob) {
	c := s.classes[job.class]
	s.inflight--
	s.met.Completed.Inc()
	s.met.InFlight.Set(int64(s.inflight))
	c.metrics.Completed.Inc()
	c.completed++

	jct := s.clock - job.arrival
	stretch := float64(jct) / float64(job.makespan)
	c.jctSum += float64(jct)
	c.jctSumSq += float64(jct) * float64(jct)
	c.stretchSum += stretch
	c.metrics.JCTSum.Add(float64(jct))
	c.metrics.StretchSum.Add(stretch)
	c.metrics.JainFairness.Set(c.jain())

	t := s.tenants[c.tenant]
	t.stretchSum += stretch
	t.completed++
	s.met.JainFairness.Set(s.globalJain())

	s.log = append(s.log, LogEvent{
		Time: s.clock, Kind: "complete", Job: job.name,
		Class: c.cfg.Name, Tenant: c.cfg.Tenant,
		Start: job.start, Makespan: job.makespan,
		JCT: jct, Stretch: stretch,
	})
}

// globalJain is Jain's index over the per-tenant mean stretches of the
// tenants that completed at least one job.
func (s *Server) globalJain() float64 {
	means := make([]float64, 0, len(s.tenants))
	for _, t := range s.tenants {
		if t.completed > 0 {
			means = append(means, t.stretchSum/float64(t.completed))
		}
	}
	jain, err := stats.JainFairness(means)
	if err != nil {
		return 0
	}
	return jain
}

// finish assembles the run log from the drained loop.
func (s *Server) finish() *RunLog {
	sum := Summary{
		FinalClock:   s.clock,
		Arrivals:     s.met.Arrivals.Load(),
		Admitted:     s.met.Admitted.Load(),
		Rejected:     s.met.Rejected.Load(),
		Planned:      s.met.Planned.Load(),
		Completed:    s.met.Completed.Load(),
		JainFairness: s.globalJain(),
	}
	for _, c := range s.classes {
		cs := ClassSummary{
			Class:     c.cfg.Name,
			Tenant:    c.cfg.Tenant,
			Arrivals:  c.arrivals,
			Rejected:  c.rejected,
			Completed: c.completed,
		}
		if n := float64(c.completed); n > 0 {
			cs.MeanJCT = c.jctSum / n
			cs.MeanQueueDelay = c.qdSum / n
			cs.MeanStretch = c.stretchSum / n
			cs.Jain = c.jain()
		}
		sum.Classes = append(sum.Classes, cs)
	}
	return &RunLog{Config: s.cfg, Events: s.log, Summary: sum}
}
