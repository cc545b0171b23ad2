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
	"math/bits"
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
// action; the low 16 bits carry the visible-window slot, and the
// cluster.MaxMachines machine indices fill the 15 bits above them.
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
	g   *dag.Graph
	cfg Config

	// The cluster, shared by clones and never written after Reset: a copy
	// of the validated spec, its capacities as capacity[m*dims+d], the total.
	spec     cluster.Spec
	capacity []int64
	total    resource.Vector

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
	// used[m*dims+d] sums the demands of the tasks running on machine m: the
	// occupancy at now, which no later slot exceeds (DESIGN.md §7).
	used []int64

	// A scratch buffer reused by advanceTo so that it does not allocate once
	// warm, and the schedule/process steps taken since the last flushCounts.
	// They carry no episode state and are deliberately not copied by
	// CloneInto.
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
// builds one, reusing e's storage: every slice, and the spec copy too when
// spec equals the one e was last reset on. Whatever episode e held,
// finished or not, is gone. A scheduler that plans job after job keeps one
// Env and resets it per job. On error e is left as it was. Returns e.
func (e *Env) Reset(g *dag.Graph, spec cluster.Spec, cfg Config) (*Env, error) {
	if cfg.Window < 0 {
		return nil, fmt.Errorf("simenv: negative window %d", cfg.Window)
	}
	if cfg.Mode == 0 {
		cfg.Mode = NextCompletion
	}
	own, capacity, total := e.spec, e.capacity, e.total
	if own == nil || !own.Equal(spec) {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		// A private copy, so that the comparison above never reads a spec
		// the caller has since changed.
		own, total = spec.Clone(), spec.Total()
		capacity = make([]int64, 0, len(own)*len(total))
		for _, mc := range own {
			capacity = append(capacity, mc.Capacity...)
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

	e.g, e.cfg = g, cfg
	e.spec, e.capacity, e.total = own, capacity, total
	e.used = slices.Grow(e.used[:0], len(capacity))[:len(capacity)]
	clear(e.used)
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
	dst.cfg = e.cfg
	dst.spec, dst.capacity, dst.total = e.spec, e.capacity, e.total // shared
	dst.used = append(dst.used[:0], e.used...)
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

// NumMachines reports how many machines the episode's cluster has.
func (e *Env) NumMachines() int { return len(e.spec) }

// Cluster returns a snapshot of the episode's occupancy as a multi-machine
// grid, built anew on every call: an empty Multi advanced to Now, with each
// running task placed at Now for the rest of its runtime. The episode keeps
// no grid, and changing the snapshot does not change the episode.
func (e *Env) Cluster() *cluster.Multi {
	space, err := cluster.NewMulti(e.spec)
	if err != nil {
		panic(err) // the spec was validated by Reset
	}
	space.Advance(e.now)
	for _, id := range e.running {
		if err := space.Place(int(e.machine[id]), e.now, e.g.Task(id).Demand, e.finish[id]-e.now); err != nil {
			panic(err) // the running tasks fitted together when they started
		}
	}
	return space
}

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
	return e.LegalActionsInto(make([]Action, 0, e.visibleLen()*len(e.spec)+1))
}

// LegalActionsInto appends the legal actions to buf (typically buf[:0]) and
// returns the extended slice — the allocation-free variant of LegalActions.
// A finished episode appends nothing. Appends reuse buf's capacity after
// the first episode; the rollout alloc gates verify steady-state zero
// allocation.
func (e *Env) LegalActionsInto(buf []Action) []Action {
	if e.Done() {
		return buf
	}
	w := e.visibleLen()
	for i := 0; i < w; i++ {
		demand := e.g.Task(e.ready[i]).Demand
		for m := range e.spec {
			if e.fits(m, demand) {
				buf = append(buf, At(i, m))
			}
		}
	}
	if len(e.running) > 0 {
		buf = append(buf, Process)
	}
	return buf
}

// fits reports whether demand fits on machine m now; need > capacity - used
// cannot wrap. Reset refused any demand of other dimensions than the spec's.
func (e *Env) fits(m int, demand resource.Vector) bool {
	lo := m * len(demand)
	capacity, used := e.capacity[lo:lo+len(demand)], e.used[lo:lo+len(demand)]
	for d, need := range demand {
		if need > capacity[d]-used[d] {
			return false
		}
	}
	return true
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
// allocation-free rollout path: fmt allocates, so it stays out of their
// bodies.
func errScheduleIndex(i, visible int) error {
	return fmt.Errorf("%w: schedule index %d with %d visible tasks", ErrIllegalAction, i, visible)
}

func errNoFit(id dag.TaskID, err error) error {
	return fmt.Errorf("%w: task %d does not fit now: %w", ErrIllegalAction, id, err)
}

// errPlace is the error a cluster grid gives for the placement of task on
// machine m at now that stepSchedule refused, MaxSpan included.
func errPlace(id dag.TaskID, m, machines int, now int64, task dag.Task) error {
	switch {
	case m >= machines:
		return errNoFit(id, fmt.Errorf("%w: %d of %d", cluster.ErrMachineRange, m, machines))
	case task.Runtime > cluster.MaxSpan:
		return errNoFit(id, fmt.Errorf("%w: start=%d duration=%d, at most %d slots", cluster.ErrTooLong, now, task.Runtime, cluster.MaxSpan))
	}
	return errNoFit(id, fmt.Errorf("%w: start=%d demand=%v duration=%d", cluster.ErrDoesNotFit, now, task.Demand, task.Runtime))
}

func errIdleProcess() error {
	return fmt.Errorf("%w: process with an idle cluster", ErrIllegalAction)
}

func errUnknownMode(mode ProcessMode) error {
	return fmt.Errorf("simenv: unknown process mode %d", mode)
}

func (e *Env) stepSchedule(i, m int) error {
	if i < 0 || i >= e.visibleLen() {
		return errScheduleIndex(i, e.visibleLen())
	}
	id := e.ready[i]
	task := e.g.Task(id)
	if m >= len(e.spec) || task.Runtime > cluster.MaxSpan || !e.fits(m, task.Demand) {
		return errPlace(id, m, len(e.spec), e.now, task)
	}
	used := e.used[m*len(task.Demand):]
	for d, need := range task.Demand {
		used[d] += need
	}
	// Remove index i by shifting the tail left within the same backing
	// array.
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
// finish <= target, taking its demand off its machine. Newly ready tasks
// are appended to the ready queue in (finish time, task ID) order, which keeps episodes fully deterministic.
// Only the running list is read: the tasks still running are swapped to its
// front and the completed ones, left in its spare tail, are ordered with an
// insertion sort (bursts are small). Newly ready tasks are appended into
// recycled buffers (readyBuf, ready), which stop allocating once they reach
// the episode's high-water capacity; the rollout alloc gates verify it.
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
		demand := e.g.Task(id).Demand
		used := e.used[int(e.machine[id])*len(demand):]
		for d, need := range demand {
			used[d] -= need
		}
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
	return &sched.Schedule{
		Algorithm:  algorithm,
		Placements: placements,
		Makespan:   e.Makespan(),
	}, nil
}

// OccupancyInto writes the aggregate cluster occupancy for the next horizon
// slots starting at the current time into out, packed into lanes of lane
// bits: slot k's occupancy (the demands of the tasks running in slot now+k,
// summed across machines) of dimension d is lane k%p of word d*w+k/p, lane
// i being bits [i*lane, (i+1)*lane), where p = 64/lane slots share a word
// and w = PackedWords(horizon, lane) words hold a dimension. lane is 8, 16,
// 32 or 64, and must hold CapacityDim(d) of every dimension written: no slot
// holds more, so no lane overflows (lane 64 holds any capacity, one slot a
// word). The lanes past the horizon in a dimension's last word are zero. It
// writes at most dims dimensions (clamped to the cluster's dimensionality)
// and no other word. It needs no storage but out's.
func (e *Env) OccupancyInto(horizon, dims, lane int, out []uint64) {
	s := uint(bits.TrailingZeros(uint(lane))) // lane is 1<<s bits
	perWord := 6 - s                          // 1<<perWord lanes share a word
	inWord := int64(1)<<perWord - 1           // a slot's lane within its word
	words := PackedWords(horizon, lane)
	ones := laneOnes[s]
	span := int64(words) << perWord // slots the words hold, padding included
	nd := len(e.total)
	dims = min(dims, nd)
	// Every lane starts at what runs now, and each running task leaves the
	// lanes from its finish slot on. A lane never drops below its final
	// occupancy, so no subtraction borrows from the lane above. The padding
	// lanes hold the slots past the horizon the same way until the mask
	// clears them.
	for d := 0; d < dims; d++ {
		var used uint64
		for m := range e.spec {
			used += uint64(e.used[m*nd+d])
		}
		for i := d * words; i < (d+1)*words; i++ {
			out[i] = used * ones
		}
	}
	for _, id := range e.running {
		k := max(e.finish[id]-e.now, 0)
		if k >= span {
			continue
		}
		j, shift := int(k>>perWord), (k&inWord)<<s
		for d, need := range e.g.Task(id).Demand[:dims] {
			row := out[d*words : (d+1)*words]
			leave := uint64(need) * ones
			row[j] -= leave << shift
			for i := j + 1; i < words; i++ {
				row[i] -= leave
			}
		}
	}
	if r := horizon & int(inWord); r != 0 {
		for d := 0; d < dims; d++ {
			out[(d+1)*words-1] &= 1<<(r<<s) - 1
		}
	}
}

// laneOnes[s] holds 1 in every lane of 1<<s bits: times a value, it is that
// value in every lane.
var laneOnes = [7]uint64{3: 0x0101010101010101, 4: 0x0001000100010001, 5: 0x0000000100000001, 6: 1}

// PackedWords returns how many words OccupancyInto packs slots values of
// lane bits into.
func PackedWords(slots, lane int) int { return (slots*lane + 63) >> 6 }

// occupancyRange writes dimension d of the aggregate occupancy in slots
// now+from, ..., now+from+len(out)-1 into out.
func (e *Env) occupancyRange(d, from int, out []int64) {
	nd := len(e.total)
	// occ runs through the slots: what runs now, less what left by then. A
	// task leaves at slot finish-now >= 1; out holds the departures in its
	// range until the running sum below turns them into occupancies.
	var occ int64
	for m := range e.spec {
		occ += e.used[m*nd+d]
	}
	clear(out)
	for _, id := range e.running {
		k := e.finish[id] - e.now
		need := e.g.Task(id).Demand[d]
		switch {
		case k <= int64(from):
			occ -= need
		case k < int64(from+len(out)):
			out[k-int64(from)] -= need
		}
	}
	for k, left := range out {
		occ += left
		out[k] = occ
	}
}

// occupancyChunk is how many slots of one dimension FillOccupancy computes
// per pass, on the stack.
const occupancyChunk = 32

// FillOccupancy writes the normalized aggregate cluster occupancy for the
// next horizon slots starting at the current time into out, laid out
// out[d*horizon+k]: each slot's summed integer occupancy (OccupancyInto's
// lane) converted to float and divided by the total capacity, in [0, 1].
// This is the cluster-state half of the DRL input (paper §III-D), so it is a
// function of OccupancyInto's integers and the capacity alone. At most dims
// dimensions are written (clamped to the cluster's dimensionality); out must
// hold at least dims*horizon entries. It does not allocate.
func (e *Env) FillOccupancy(horizon, dims int, out []float64) {
	var rows [occupancyChunk]int64
	for d := 0; d < min(dims, len(e.total)); d++ {
		total := float64(e.total[d])
		for from := 0; from < horizon; from += occupancyChunk {
			chunk := rows[:min(occupancyChunk, horizon-from)]
			e.occupancyRange(d, from, chunk)
			for k, occ := range chunk {
				out[d*horizon+from+k] = float64(occ) / total
			}
		}
	}
}

// CapacityDim returns one dimension of the aggregate cluster capacity
// without copying the vector.
func (e *Env) CapacityDim(d int) int64 { return e.total[d] }

// AvailableNowInto appends the free capacity at the current time to buf
// (typically buf[:0]) and returns the extended slice, without allocating
// when buf has room.
func (e *Env) AvailableNowInto(buf resource.Vector) resource.Vector {
	n := len(buf)
	buf = append(buf, e.total...)
	for i, u := range e.used {
		buf[n+i%len(e.total)] -= u
	}
	return buf
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

// errNoLegal reports a stuck episode. It lives outside the allocation-free
// rollout fast path because error construction goes through fmt.
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
func (rc *RolloutContext) RolloutFrom(base *Env, rng *rand.Rand) (int64, error) {
	rc.env = base.CloneInto(rc.env)
	return rc.Rollout(rc.env, rng)
}

// Rollout drives e in place to completion: the one episode loop behind every
// policy-driven schedule and every MCTS simulation. It reuses the context's
// buffers, and results depend only on the policy, state and rng.
// The episode's step counts reach the metrics once, on whichever path
// returns.
func (rc *RolloutContext) Rollout(e *Env, rng *rand.Rand) (int64, error) {
	err := rc.play(e, rng)
	e.flushCounts()
	if err != nil {
		return 0, err
	}
	return e.Makespan(), nil
}

// play is the step loop of Rollout.
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
			a, err = rc.cp.ChooseCtx(rc.pctx, e, rc.legal, rng)
		} else {
			// Plain policies (random, SJF, Tetris rollout policies) pick an
			// index from legal without allocating.
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
