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
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
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
	// Arrival is the class's inter-arrival process. The class submits
	// until the horizon.
	Arrival workload.ArrivalConfig `json:"arrival"`
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
	// Admission selects the admission-control policy.
	Admission AdmissionConfig `json:"admission"`
	// Classes lists the client classes. At least one is required.
	Classes []ClassConfig `json:"classes"`
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
	planned  int64 // this run's count; met may be shared with other runs
	seq      int64
	clock    int64
	log      []LogEvent
	ran      bool

	check sched.Validator // validates each plan and keeps its profile for commit
	means []float64       // globalJain's scratch
}

// New validates cfg, generates the job-template pool from the seed, and
// returns a Server ready to Run. A nil reg gets a private registry.
func New(cfg Config, scheduler sched.Scheduler, reg *obs.Registry) (*Server, error) {
	templates, err := workload.GenerateTrace(rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, fmt.Errorf("serve: building job templates: %w", err)
	}
	return newServer(cfg, scheduler, reg, templates, workload.TraceCapacity())
}

// newServer is New over templates, which arrivals draw from, on machines of
// the given capacity.
func newServer(cfg Config, scheduler sched.Scheduler, reg *obs.Registry, templates []*dag.Graph, capacity resource.Vector) (*Server, error) {
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
	admit, err := NewAdmission(cfg.Admission)
	if err != nil {
		return nil, err
	}

	if reg == nil {
		reg = obs.NewRegistry()
	}
	machines := cfg.Machines
	if machines == 0 {
		machines = 1
	}
	spec := cluster.Uniform(machines, capacity)
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
		if cc.Tenant == "" {
			cc.Tenant = cc.Name
		}
		proc, err := workload.NewArrivalProcess(cc.Arrival)
		if err != nil {
			return nil, fmt.Errorf("serve: class %q: %w", cc.Name, err)
		}
		// Gaps far below one slot all round to zero: the class would then
		// never leave its first slot, and Run would never end.
		if expected := float64(cfg.Horizon+1) / cc.Arrival.Mean; expected > maxExpectedArrivals {
			return nil, fmt.Errorf("serve: class %q: mean gap %g slots over %d slots expects %.3g arrivals, more than %d; raise the mean",
				cc.Name, cc.Arrival.Mean, cfg.Horizon+1, expected, maxExpectedArrivals)
		}
		// So do gaps that are mostly below half a slot, whatever the mean:
		// a tiny shape puts nearly all its mass there.
		if q := proc.AdvanceProb(); q*maxExpectedArrivals < 1 {
			return nil, fmt.Errorf("serve: class %q: a gap reaches half a slot with probability %.3g, so a burst expects %.3g arrivals in one slot, more than %d; raise the mean or shape",
				cc.Name, q, 1/q, maxExpectedArrivals)
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

// maxExpectedArrivals bounds the arrivals a class may expect over
// the horizon, (Horizon+1)/Mean, and in one slot's burst, 1/AdvanceProb: far
// above any serving run that finishes, far below a class whose gaps round
// every arrival into one slot.
const maxExpectedArrivals = 1 << 24

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
// enqueues it, unless it falls past the horizon. from is at
// most the horizon, so the gap is compared with what is left of it: a gap
// near MaxInt64 ends the class instead of wrapping from+gap.
func (s *Server) scheduleArrival(ci int, from int64) {
	c := s.classes[ci]
	gap := c.proc.NextGap(c.rng)
	if gap > s.cfg.Horizon-from {
		return
	}
	t := from + gap
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
// The scheduler call is timed for the PlanTime metric only; no clock value
// reaches the run log.
func (s *Server) planJob(job *activeJob) error {
	began := time.Now()
	plan, err := s.scheduler.Schedule(job.graph, s.spec)
	planTime := time.Since(began)
	if err != nil {
		return fmt.Errorf("serve: scheduling %s: %w", job.name, err)
	}
	if err := s.check.Validate(job.graph, s.spec, plan); err != nil {
		return fmt.Errorf("serve: %s produced an invalid plan for %s: %w", s.scheduler.Name(), job.name, err)
	}
	t0, err := s.commit(s.check.Segments())
	if err != nil {
		return fmt.Errorf("serve: packing %s: %w", job.name, err)
	}
	job.start = t0
	job.makespan = plan.Makespan

	s.inflight++
	s.planned++
	s.met.Planned.Inc()
	s.met.InFlight.Set(int64(s.inflight))
	s.met.PlanTime.Observe(planTime)
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

// commit writes a plan into the occupancy grid at the earliest offset >=
// clock at which all of it fits, and returns that offset. The plan comes as
// segs, its profile as the Validator that accepted it left it: every
// segment's demand ≤ its machine's capacity, so the plan fits at an offset
// exactly when each segment fits there on top of what the grid holds, and
// placing the segments leaves the grid as placing the tasks would.
// The offset is the fix-point of one rule: a segment whose earliest start
// lies after offset+start moves the offset up to it, which skips only offsets
// at which that segment collides; once every segment has fitted since the
// last move, the offset is the minimal one. It never passes MaxBusy, where
// the grid is empty and the plan fits.
func (s *Server) commit(segs []sched.Segment) (int64, error) {
	t0, probes := s.clock, int64(0)
	for i, fitted := 0, 0; fitted < len(segs); i = (i + 1) % len(segs) {
		seg := segs[i]
		e, err := s.space.EarliestStart(seg.Machine, t0+seg.Start, seg.Demand, seg.End-seg.Start)
		if err != nil {
			return 0, err
		}
		probes++
		fitted++
		if e > t0+seg.Start {
			t0, fitted = e-seg.Start, 1 // this segment fits at e; the others are open again
		}
	}
	s.met.PackProbes.Add(probes)
	for i, seg := range segs {
		if err := s.space.Place(seg.Machine, t0+seg.Start, seg.Demand, seg.End-seg.Start); err != nil {
			return 0, fmt.Errorf("the plan's profile fits at offset %d, its segment %d does not: %w", t0, i, err)
		}
	}
	return t0, nil
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
	c.jctSumSq += float64(float64(jct) * float64(jct)) // float64 rounds: no fused multiply-add
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
	s.means = s.means[:0]
	for _, t := range s.tenants {
		if t.completed > 0 {
			s.means = append(s.means, t.stretchSum/float64(t.completed))
		}
	}
	jain, err := stats.JainFairness(s.means)
	if err != nil {
		return 0
	}
	return jain
}

// finish assembles the run log from the drained loop.
func (s *Server) finish() *RunLog {
	sum := Summary{FinalClock: s.clock, Planned: s.planned, JainFairness: s.globalJain()}
	for _, c := range s.classes {
		sum.Arrivals += c.arrivals
		sum.Rejected += c.rejected
		sum.Completed += c.completed
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
	sum.Admitted = sum.Arrivals - sum.Rejected
	return &RunLog{Config: s.cfg, Events: s.log, Summary: sum}
}
