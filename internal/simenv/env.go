// Package simenv implements the sequential decision process of paper §III-B:
// states are (cluster occupancy, ready tasks), and the action space is
// {process, schedule ready-task i}. Scheduling a task places it at the
// current time without advancing the clock; the process action advances the
// clock — by one slot (DRL training) or to the next task completion (MCTS).
//
// The environment is the single execution substrate shared by every
// scheduler in this repository: the heuristic baselines, pure MCTS, the DRL
// agent and Spear all drive the same Env, so their makespans are directly
// comparable and every produced schedule can be re-validated independently.
package simenv

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/obs"
	"spear/internal/resource"
	"spear/internal/sched"
)

// Action encodes one scheduler decision. Process advances time; any other
// value packs a placement decision: the low bits are an index into the
// visible ready window (VisibleTask) selecting a task to start now (the
// slot), the high bits the machine it starts on. Machine-0 actions are
// numerically identical to the plain slot index, so single-machine
// episodes see exactly the pre-multi-machine action values.
type Action int32

// Process is the "let the cluster run" action (the paper's action -1).
const Process Action = -1

// machineShift is the bit offset of the machine index inside a schedule
// action; the low 16 bits carry the visible-window slot.
const machineShift = 16

// At composes the schedule action starting the slot-th visible ready task
// on the given machine.
func At(slot, machine int) Action { return Action(slot | machine<<machineShift) }

// Slot extracts the visible-window index of a schedule action. It is
// meaningless for Process.
func (a Action) Slot() int { return int(a) & (1<<machineShift - 1) }

// Machine extracts the machine index of a schedule action. It is
// meaningless for Process.
func (a Action) Machine() int { return int(a) >> machineShift }

// ProcessMode selects how far the Process action advances the clock.
type ProcessMode int

const (
	// NextCompletion advances to the earliest finish time among running
	// tasks. Used inside MCTS to keep the search tree shallow (§III-C: "we
	// will only proceed until at least one task finishes, since no new
	// information arrives prior").
	NextCompletion ProcessMode = iota + 1
	// OneSlot advances the clock by exactly one slot. Used during DRL
	// training, where each process action carries a -1 reward so that the
	// episode's total reward equals the negative makespan (§III-D).
	OneSlot
)

// DefaultWindow is the maximum number of ready tasks exposed to the neural
// network at once (paper §V-A); additional ready tasks wait in a backlog.
const DefaultWindow = 15

// Config parameterizes an Env.
type Config struct {
	// Window caps the number of visible ready tasks; 0 means unlimited.
	Window int
	// Mode selects the Process semantics. Zero value means NextCompletion.
	Mode ProcessMode
	// Metrics, when non-nil, receives step and clone counts. The bundle is
	// shared by every clone of the episode, so the counters aggregate
	// across concurrent search workers. Clones count as they happen;
	// steps are tallied in the Env and added once per Rollout or public
	// Step. Nothing allocates.
	Metrics *obs.SimMetrics
}

type status int8

const (
	statusPending status = iota + 1
	statusReady
	statusRunning
	statusDone
)

// Env is one in-progress scheduling episode over a single job DAG. Clone it
// to branch the episode (tree search); the zero value is not usable until
// Reset — use New or NewCluster.
type Env struct {
	g     *dag.Graph
	space *cluster.Multi
	cfg   Config

	now            int64
	status         []status
	missingParents []int32
	start          []int64
	finish         []int64
	machine        []int32      // machine each started task was placed on; -1 before
	ready          []dag.TaskID // FIFO: visible window is ready[:Window]
	running        []dag.TaskID // the running tasks, unordered; cap NumTasks
	lastFinish     int64        // latest finish among started tasks
	done           int

	// Scratch buffer reused by advanceTo so a Process step allocates
	// nothing once warm, and the schedule/process steps taken since the
	// last flushCounts. They carry no episode state and are deliberately
	// not copied by CloneInto.
	readyBuf         []dag.TaskID
	placed, advanced int64
}

// State-hash component tags. Each contribution to the canonical state hash
// opens its FNV-1a chain with one of these, so a task's ready, running and
// done phases can never produce colliding words.
const (
	sigNow uint64 = iota + 1
	sigReady
	sigRunning
	sigDone
)

// FNV-1a parameters (64-bit offset basis and prime).
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// hashWords folds four words through an FNV-1a chain. Every state-hash
// contribution is one such chain, and contributions are combined with XOR,
// so the total does not depend on the order they are folded in.
func hashWords(a, b, c, d uint64) uint64 {
	h := fnvOffset
	h = (h ^ a) * fnvPrime
	h = (h ^ b) * fnvPrime
	h = (h ^ c) * fnvPrime
	h = (h ^ d) * fnvPrime
	return h
}

// StateHash returns the canonical signature of the episode state: the
// clock, the ready set, the per-machine occupancy of running tasks (task,
// finish time, machine) and the done set, XOR-combined so that different
// schedule orders reaching the same state return the same hash. Each call
// walks every task, O(tasks); MCTS calls it once per node it creates while
// its transposition table is on, and keys the table on it. Placements of
// finished tasks are deliberately excluded: they cannot influence the
// remaining episode, and excluding them is what lets transpositions merge.
func (e *Env) StateHash() uint64 {
	h := hashWords(sigNow, uint64(e.now), 0, 0)
	for id, st := range e.status {
		switch st {
		case statusReady:
			h ^= hashWords(sigReady, uint64(id), 0, 0)
		case statusRunning:
			h ^= hashWords(sigRunning, uint64(id), uint64(e.finish[id]), uint64(e.machine[id]))
		case statusDone:
			h ^= hashWords(sigDone, uint64(id), 0, 0)
		}
	}
	return h
}

// Env construction and stepping errors.
var (
	ErrInfeasible    = errors.New("simenv: a task demand exceeds cluster capacity")
	ErrIllegalAction = errors.New("simenv: illegal action")
	ErrEpisodeOver   = errors.New("simenv: episode already finished")
	ErrNotFinished   = errors.New("simenv: episode not finished")
)

// New returns a fresh episode for scheduling g on a single machine with the
// given capacity. It fails with ErrInfeasible if any single task could
// never fit. It is shorthand for NewCluster with a one-machine spec.
func New(g *dag.Graph, capacity resource.Vector, cfg Config) (*Env, error) {
	if !capacity.Positive() {
		return nil, fmt.Errorf("%w: %v", cluster.ErrBadCapacity, capacity)
	}
	return NewCluster(g, cluster.Single(capacity), cfg)
}

// NewCluster returns a fresh episode for scheduling g on the cluster
// described by spec. It fails with ErrInfeasible if some task fits on no
// machine of the spec.
func NewCluster(g *dag.Graph, spec cluster.Spec, cfg Config) (*Env, error) {
	return new(Env).Reset(g, spec, cfg)
}

// Reset turns e into a fresh episode for scheduling g on spec, as NewCluster
// builds one, reusing e's storage: every slice, and the cluster grids too
// when spec equals the one e was last reset on. Whatever episode e held,
// finished or not, is gone. A scheduler that plans job after job keeps one
// Env and resets it per job. On error e is left as it was. Returns e.
func (e *Env) Reset(g *dag.Graph, spec cluster.Spec, cfg Config) (*Env, error) {
	if cfg.Window < 0 {
		return nil, fmt.Errorf("simenv: negative window %d", cfg.Window)
	}
	if cfg.Mode == 0 {
		cfg.Mode = NextCompletion
	}
	space := e.space
	if space == nil || !space.Spec().Equal(spec) {
		// A private copy, so that the comparison above never reads a spec
		// the caller has since changed.
		var err error
		if space, err = cluster.NewMulti(spec.Clone()); err != nil {
			return nil, err
		}
	}
	n := g.NumTasks()
	for id := 0; id < n; id++ {
		if d := g.Task(dag.TaskID(id)).Demand; !spec.Fits(d) {
			if len(spec) == 1 {
				return nil, fmt.Errorf("%w: max demand %v, capacity %v", ErrInfeasible, g.MaxDemand(), spec[0].Capacity)
			}
			return nil, fmt.Errorf("%w: task %d demand %v fits no machine", ErrInfeasible, id, d)
		}
	}
	space.Reset()
	if m := cfg.Metrics; m != nil {
		space.Instrument(m.SlotReuse, m.SlotGrow)
	} else {
		space.Instrument(nil, nil)
	}

	e.g, e.space, e.cfg = g, space, cfg
	e.now, e.lastFinish, e.done = 0, 0, 0
	e.placed, e.advanced = 0, 0
	e.status = slices.Grow(e.status[:0], n)[:n]
	e.missingParents = slices.Grow(e.missingParents[:0], n)[:n]
	e.start = slices.Grow(e.start[:0], n)[:n]
	e.finish = slices.Grow(e.finish[:0], n)[:n]
	e.machine = slices.Grow(e.machine[:0], n)[:n]
	e.running = slices.Grow(e.running[:0], n)
	e.ready = e.ready[:0]
	for id := 0; id < n; id++ {
		e.status[id] = statusPending
		e.missingParents[id] = int32(len(g.Pred(dag.TaskID(id))))
		e.start[id] = -1
		e.finish[id] = -1
		e.machine[id] = -1
		if e.missingParents[id] == 0 {
			e.status[id] = statusReady
			e.ready = append(e.ready, dag.TaskID(id))
		}
	}
	return e, nil
}

// Clone returns an independent deep copy of the episode.
func (e *Env) Clone() *Env { return e.CloneInto(nil) }

// CloneInto copies the episode into dst, reusing dst's slices so rollout
// workers can recycle one scratch Env instead of allocating a deep copy per
// simulation. A nil dst allocates a fresh Env. The receiver is not
// modified; dst must not be in use by another goroutine. Returns dst.
// The appends grow dst's buffers on first use only; a recycled dst copies
// without allocating, which the CloneInto alloc gate verifies at runtime.
//
//spear:slowpath
func (e *Env) CloneInto(dst *Env) *Env {
	if m := e.cfg.Metrics; m != nil {
		m.EnvClones.Inc()
		if dst != nil {
			m.EnvCloneReuse.Inc()
		}
	}
	if dst == nil {
		dst = &Env{}
	}
	dst.g = e.g // immutable, shared
	dst.space = e.space.CloneInto(dst.space)
	dst.cfg = e.cfg
	dst.now = e.now
	dst.status = append(dst.status[:0], e.status...)
	dst.missingParents = append(dst.missingParents[:0], e.missingParents...)
	dst.start = append(dst.start[:0], e.start...)
	dst.finish = append(dst.finish[:0], e.finish...)
	dst.machine = append(dst.machine[:0], e.machine...)
	dst.ready = append(dst.ready[:0], e.ready...)
	if cap(dst.running) < len(e.status) {
		dst.running = make([]dag.TaskID, 0, len(e.status))
	}
	dst.running = append(dst.running[:0], e.running...)
	dst.lastFinish = e.lastFinish
	dst.done = e.done
	return dst
}

// Graph returns the job DAG being scheduled.
func (e *Env) Graph() *dag.Graph { return e.g }

// Capacity returns a copy of the aggregate cluster capacity across
// machines. For a one-machine cluster this is the machine's capacity.
func (e *Env) Capacity() resource.Vector { return e.space.TotalCapacity() }

// NumMachines reports how many machines the episode's cluster has.
func (e *Env) NumMachines() int { return e.space.NumMachines() }

// Cluster returns the episode's multi-machine space. Callers must treat it
// as read-only; mutating it corrupts the episode.
func (e *Env) Cluster() *cluster.Multi { return e.space }

// Now returns the current clock value.
func (e *Env) Now() int64 { return e.now }

// Done reports whether every task has finished.
func (e *Env) Done() bool { return e.done == e.g.NumTasks() }

// NumRunning reports the number of currently running tasks.
func (e *Env) NumRunning() int { return len(e.running) }

// TaskDone reports whether the task has finished executing.
func (e *Env) TaskDone(id dag.TaskID) bool { return e.status[id] == statusDone }

// TaskRunning reports whether the task is currently executing.
func (e *Env) TaskRunning(id dag.TaskID) bool { return e.status[id] == statusRunning }

// TaskFinish returns the committed finish time of a running or done task;
// ok is false for tasks that have not started.
func (e *Env) TaskFinish(id dag.TaskID) (finish int64, ok bool) {
	if st := e.status[id]; st != statusRunning && st != statusDone {
		return 0, false
	}
	return e.finish[id], true
}

// Backlog reports how many ready tasks are hidden behind the window.
func (e *Env) Backlog() int {
	if e.cfg.Window == 0 || len(e.ready) <= e.cfg.Window {
		return 0
	}
	return len(e.ready) - e.cfg.Window
}

// NumVisible reports how many ready tasks are inside the window.
func (e *Env) NumVisible() int { return e.visibleLen() }

// VisibleTask returns the i-th visible ready task without copying the
// window; i must be in [0, NumVisible()).
func (e *Env) VisibleTask(i int) dag.TaskID { return e.ready[i] }

// visibleLen returns the window size without copying.
func (e *Env) visibleLen() int {
	w := len(e.ready)
	if e.cfg.Window > 0 && w > e.cfg.Window {
		w = e.cfg.Window
	}
	return w
}

// LegalActions returns the legal actions at the current state, applying the
// search-space reductions of §III-C: only (task, machine) pairs that fit
// the remaining capacity right now are schedulable (a non-fitting task
// cannot start before the earliest completion anyway), and Process is legal
// only when the cluster is actually running something. Schedule actions
// come first in visible-window order — machines in index order within one
// slot — then Process. On a one-machine cluster this is exactly the classic
// slot-indexed action list.
func (e *Env) LegalActions() []Action {
	if e.Done() {
		return nil
	}
	return e.LegalActionsInto(make([]Action, 0, e.visibleLen()*e.space.NumMachines()+1))
}

// LegalActionsInto appends the legal actions to buf (typically buf[:0]) and
// returns the extended slice — the allocation-free variant of LegalActions.
// A finished episode appends nothing. Appends reuse buf's capacity after
// the first episode; the rollout alloc gates verify steady-state zero
// allocation.
//
//spear:slowpath
func (e *Env) LegalActionsInto(buf []Action) []Action {
	if e.Done() {
		return buf
	}
	w := e.visibleLen()
	nm := e.space.NumMachines()
	for i := 0; i < w; i++ {
		task := e.g.Task(e.ready[i])
		for m := 0; m < nm; m++ {
			if e.space.FitsAt(m, e.now, task.Demand, task.Runtime) {
				buf = append(buf, At(i, m))
			}
		}
	}
	if len(e.running) > 0 {
		buf = append(buf, Process)
	}
	return buf
}

// Step applies action a. Scheduling actions leave the clock unchanged;
// Process advances it according to the configured mode and completes any
// tasks whose finish time has been reached.
func (e *Env) Step(a Action) error {
	err := e.step(a)
	e.flushCounts()
	return err
}

// flushCounts adds the steps tallied since the last call to the metrics.
func (e *Env) flushCounts() {
	if m := e.cfg.Metrics; m != nil {
		m.TasksPlaced.Add(e.placed)
		m.SlotAdvances.Add(e.advanced)
	}
	e.placed, e.advanced = 0, 0
}

// step is Step without the flush: the rollout loop tallies a whole episode
// before it touches the shared counters.
func (e *Env) step(a Action) error {
	if e.Done() {
		return ErrEpisodeOver
	}
	if a == Process {
		return e.stepProcess()
	}
	if a < 0 {
		return errScheduleIndex(int(a), e.visibleLen())
	}
	return e.stepSchedule(a.Slot(), a.Machine())
}

// Cold-path error constructors for the step functions, which sit on the
// //spear:noalloc rollout path where fmt is forbidden.
//
//spear:slowpath
func errScheduleIndex(i, visible int) error {
	return fmt.Errorf("%w: schedule index %d with %d visible tasks", ErrIllegalAction, i, visible)
}

//spear:slowpath
func errNoFit(id dag.TaskID, err error) error {
	return fmt.Errorf("%w: task %d does not fit now: %v", ErrIllegalAction, id, err)
}

//spear:slowpath
func errIdleProcess() error {
	return fmt.Errorf("%w: process with an idle cluster", ErrIllegalAction)
}

//spear:slowpath
func errUnknownMode(mode ProcessMode) error {
	return fmt.Errorf("simenv: unknown process mode %d", mode)
}

func (e *Env) stepSchedule(i, m int) error {
	if i < 0 || i >= e.visibleLen() {
		return errScheduleIndex(i, e.visibleLen())
	}
	id := e.ready[i]
	task := e.g.Task(id)
	if err := e.space.Place(m, e.now, task.Demand, task.Runtime); err != nil {
		return errNoFit(id, err)
	}
	// Remove index i by shifting the tail left; copy into the same backing
	// array never allocates, unlike the append(e.ready[:i], ...) idiom the
	// structural noalloc check rejects.
	e.ready = e.ready[:i+copy(e.ready[i:], e.ready[i+1:])]
	e.status[id] = statusRunning
	e.machine[id] = int32(m)
	e.start[id] = e.now
	e.finish[id] = e.now + task.Runtime
	// The list was sized to NumTasks, so extending it never reallocates.
	n := len(e.running)
	e.running = e.running[:n+1]
	e.running[n] = id
	e.lastFinish = max(e.lastFinish, e.finish[id])
	e.placed++
	return nil
}

func (e *Env) stepProcess() error {
	if len(e.running) == 0 {
		return errIdleProcess()
	}
	var target int64
	switch e.cfg.Mode {
	case OneSlot:
		target = e.now + 1
	case NextCompletion:
		target = e.earliestRunningFinish()
	default:
		return errUnknownMode(e.cfg.Mode)
	}
	e.advanced++
	e.advanceTo(target)
	return nil
}

// earliestRunningFinish returns the minimum finish time among running tasks.
// Callers must ensure at least one task is running.
func (e *Env) earliestRunningFinish() int64 {
	earliest := e.finish[e.running[0]]
	for _, id := range e.running[1:] {
		earliest = min(earliest, e.finish[id])
	}
	return earliest
}

// EarliestRunningFinish returns the earliest finish among running tasks and
// whether any task is running at all.
func (e *Env) EarliestRunningFinish() (int64, bool) {
	if len(e.running) == 0 {
		return 0, false
	}
	return e.earliestRunningFinish(), true
}

// advanceTo moves the clock to target and completes every running task with
// finish <= target. Newly ready tasks are appended to the ready queue in
// (finish time, task ID) order, which keeps episodes fully deterministic.
// Only the running list is read: the tasks still running are swapped to its
// front and the completed ones, left in its spare tail, are ordered with an
// insertion sort (bursts are small). Newly ready tasks are appended into
// recycled buffers (readyBuf, ready), which stop allocating once they reach
// the episode's high-water capacity; the rollout alloc gates verify it.
//
//spear:slowpath
func (e *Env) advanceTo(target int64) {
	e.now = target

	n := 0
	for i, id := range e.running {
		if e.finish[id] > target {
			e.running[i], e.running[n] = e.running[n], id
			n++
		}
	}
	completed := e.running[n:]
	e.running = e.running[:n]
	for i := 1; i < len(completed); i++ {
		for j := i; j > 0 && e.finishesBefore(completed[j], completed[j-1]); j-- {
			completed[j], completed[j-1] = completed[j-1], completed[j]
		}
	}
	for _, id := range completed {
		e.status[id] = statusDone
		e.done++
		newlyReady := e.readyBuf[:0]
		for _, child := range e.g.Succ(id) {
			e.missingParents[child]--
			if e.missingParents[child] == 0 {
				newlyReady = append(newlyReady, child)
			}
		}
		for i := 1; i < len(newlyReady); i++ {
			for j := i; j > 0 && newlyReady[j] < newlyReady[j-1]; j-- {
				newlyReady[j], newlyReady[j-1] = newlyReady[j-1], newlyReady[j]
			}
		}
		for _, child := range newlyReady {
			e.status[child] = statusReady
			e.ready = append(e.ready, child)
		}
		e.readyBuf = newlyReady[:0]
	}
	e.space.Advance(target)
}

// finishesBefore is the completion order: by finish time, then task ID.
func (e *Env) finishesBefore(a, b dag.TaskID) bool {
	return e.finish[a] < e.finish[b] || e.finish[a] == e.finish[b] && a < b
}

// Makespan returns the finish time of the last task. It is only meaningful
// once Done reports true; before that it returns the makespan of the tasks
// finished or running so far.
func (e *Env) Makespan() int64 { return e.lastFinish }

// Schedule converts a finished episode into a Schedule. It fails with
// ErrNotFinished when tasks are still outstanding.
func (e *Env) Schedule(algorithm string) (*sched.Schedule, error) {
	if !e.Done() {
		return nil, ErrNotFinished
	}
	placements := make([]sched.Placement, e.g.NumTasks())
	for id := range placements {
		placements[id] = sched.Placement{Task: dag.TaskID(id), Start: e.start[id], Machine: int(e.machine[id])}
	}
	format := 0
	if e.space.NumMachines() > 1 {
		format = sched.FormatMulti
	}
	return &sched.Schedule{
		Format:     format,
		Algorithm:  algorithm,
		Placements: placements,
		Makespan:   e.Makespan(),
	}, nil
}

// FillOccupancy writes the normalized aggregate cluster occupancy for the
// next horizon slots starting at the current time into out, laid out
// out[d*horizon+k]. At most dims dimensions are written (clamped to the
// cluster's dimensionality); out must hold at least dims*horizon entries.
func (e *Env) FillOccupancy(horizon, dims int, out []float64) {
	e.space.FillOccupancy(e.now, horizon, dims, out)
}

// CapacityDim returns one dimension of the aggregate cluster capacity
// without copying the vector.
func (e *Env) CapacityDim(d int) int64 { return e.space.TotalCapacityDim(d) }

// AvailableNowInto appends the free capacity at the current time to buf
// (typically buf[:0]) and returns the extended slice, without allocating
// when buf has room.
func (e *Env) AvailableNowInto(buf resource.Vector) resource.Vector {
	return e.space.AvailableAtInto(e.now, buf)
}

// Policy chooses among legal actions. Implementations must be deterministic
// given the same env state and rng state, so that episodes are reproducible.
type Policy interface {
	// Name returns a short policy name for labelling results.
	Name() string
	// Choose picks one of the legal actions. legal is never empty and must
	// not be modified or retained.
	Choose(e *Env, legal []Action, rng *rand.Rand) (Action, error)
}

// errNoLegal reports a stuck episode. It lives outside the //spear:noalloc
// rollout fast path because error construction goes through fmt.
//
//spear:slowpath
func errNoLegal(e *Env) error {
	return fmt.Errorf("simenv: no legal actions with %d/%d tasks done", e.done, e.g.NumTasks())
}

// PolicyContext is an opaque bundle of per-goroutine buffers owned by a
// policy that implements ContextPolicy.
type PolicyContext interface{}

// ContextPolicy is an optional Policy extension for the allocation-free
// rollout fast path. ChooseCtx must pick exactly the same action as Choose
// given the same state and rng, but may write into the buffers of ctx. A
// context is never shared across goroutines; the policy itself still is,
// so all per-call mutable state must live in the context.
type ContextPolicy interface {
	Policy
	// NewContext allocates a private context for one goroutine.
	NewContext() PolicyContext
	// ChooseCtx is Choose reusing the buffers of ctx, which was produced by
	// this policy's NewContext.
	ChooseCtx(ctx PolicyContext, e *Env, legal []Action, rng *rand.Rand) (Action, error)
}

// PolicyCounters is the running tally of a policy context's (or an MCTS
// expander's) one-state policy evaluations: how many were asked for and how
// many of those were answered from the context's cache of earlier answers
// without running the policy's model.
type PolicyCounters struct {
	Calls     int64
	CacheHits int64
}

// PolicyCounter is implemented by policy contexts and expanders that keep
// such a tally; a search reports the difference over one Schedule call.
type PolicyCounter interface {
	PolicyCounters() PolicyCounters
}

// RolloutContext owns the reusable per-goroutine state of the rollout fast
// path: a scratch episode recycled across simulations, the legal-action
// buffer, and the policy's own context when the policy supports one. It is
// not safe for concurrent use — give every rollout worker its own.
type RolloutContext struct {
	policy Policy
	cp     ContextPolicy // non-nil when policy implements the fast path
	pctx   PolicyContext
	env    *Env
	legal  []Action
}

// NewRolloutContext returns a rollout context for simulations played by p.
func NewRolloutContext(p Policy) *RolloutContext {
	rc := &RolloutContext{policy: p}
	if cp, ok := p.(ContextPolicy); ok {
		rc.cp = cp
		rc.pctx = cp.NewContext()
	}
	return rc
}

// PolicyCounters returns the tally of the policy's own context, zero for a
// policy that keeps none.
func (rc *RolloutContext) PolicyCounters() PolicyCounters {
	if pc, ok := rc.pctx.(PolicyCounter); ok {
		return pc.PolicyCounters()
	}
	return PolicyCounters{}
}

// RolloutFrom copies base into the context's scratch episode and plays the
// policy to completion, returning the makespan. base is not modified. It is
// the allocation-free equivalent of Rollout(base.Clone(), rng).
//
//spear:noalloc
func (rc *RolloutContext) RolloutFrom(base *Env, rng *rand.Rand) (int64, error) {
	rc.env = base.CloneInto(rc.env)
	return rc.Rollout(rc.env, rng)
}

// Rollout drives e in place to completion: the one episode loop behind every
// policy-driven schedule and every MCTS simulation. It reuses the context's
// buffers, and results depend only on the policy, state and rng.
// The episode's step counts reach the metrics once, on whichever path
// returns.
//
//spear:noalloc
func (rc *RolloutContext) Rollout(e *Env, rng *rand.Rand) (int64, error) {
	err := rc.play(e, rng)
	e.flushCounts()
	if err != nil {
		return 0, err
	}
	return e.Makespan(), nil
}

// play is the step loop of Rollout.
//
//spear:noalloc
func (rc *RolloutContext) play(e *Env, rng *rand.Rand) error {
	for !e.Done() {
		rc.legal = e.LegalActionsInto(rc.legal[:0])
		if len(rc.legal) == 0 {
			return errNoLegal(e)
		}
		var a Action
		var err error
		if rc.cp != nil {
			// Every ContextPolicy in the module chooses into caller-owned
			// buffers; the rollout alloc gates audit them.
			//spear:dyncall
			a, err = rc.cp.ChooseCtx(rc.pctx, e, rc.legal, rng)
		} else {
			// Plain policies (random, SJF, Tetris rollout policies) pick an
			// index from legal without allocating.
			//spear:dyncall
			a, err = rc.policy.Choose(e, rc.legal, rng)
		}
		if err != nil {
			return err
		}
		if err := e.step(a); err != nil {
			return err
		}
	}
	return nil
}
