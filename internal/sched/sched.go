// Package sched defines the common contract between scheduling algorithms:
// the Scheduler interface, the Schedule result type, and a validator that
// checks the two correctness invariants every schedule must satisfy —
// dependency order and per-slot, per-machine capacity.
package sched

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/resource"
)

// Placement records where and when a single task starts: the machine index
// into the cluster spec and the start slot. Its finish time is Start + task
// runtime. Machine is omitted from JSON when 0, so single-machine
// schedules serialize exactly as they did before machines existed.
type Placement struct {
	Task    dag.TaskID `json:"task"`
	Start   int64      `json:"start"`
	Machine int        `json:"machine,omitempty"`
}

// Schedule is the output of a scheduling algorithm for one job DAG.
type Schedule struct {
	// Algorithm names the scheduler that produced this schedule.
	Algorithm string `json:"algorithm"`
	// Placements holds one entry per task in the DAG.
	Placements []Placement `json:"placements"`
	// Makespan is the finish time of the last task (start times are
	// relative to 0).
	Makespan int64 `json:"makespan"`
}

// Scheduler is a dependency- and resource-aware scheduling algorithm.
// Implementations must be safe for sequential reuse across jobs; they need
// not be safe for concurrent use.
type Scheduler interface {
	// Name returns a short human-readable algorithm name ("Spear",
	// "Graphene", "Tetris", "SJF", "CP", ...).
	Name() string
	// Schedule computes a full schedule for the job on the cluster
	// described by spec. A one-machine spec is the classic single-box
	// setting; see cluster.Single.
	Schedule(g *dag.Graph, spec cluster.Spec) (*Schedule, error)
}

// ContextScheduler is a Scheduler whose search can be cancelled or
// deadline-bounded. Implementations check ctx at iteration or expansion
// boundaries; on cancellation they return the best incumbent schedule
// found so far together with an error wrapping ctx.Err(), so callers can
// both use the partial result and detect the cancellation with errors.Is.
// Plain Schedule is equivalent to ScheduleContext(context.Background(), ...).
type ContextScheduler interface {
	Scheduler
	// ScheduleContext computes a schedule, honoring ctx.
	ScheduleContext(ctx context.Context, g *dag.Graph, spec cluster.Spec) (*Schedule, error)
}

// ScheduleContext schedules with s honoring ctx when s supports
// cancellation, and falls back to a plain (uncancellable) Schedule call
// otherwise — after a fast-path check that ctx is still live.
func ScheduleContext(ctx context.Context, s Scheduler, g *dag.Graph, spec cluster.Spec) (*Schedule, error) {
	if cs, ok := s.(ContextScheduler); ok {
		return cs.ScheduleContext(ctx, g, spec)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.Schedule(g, spec)
}

// Validation errors.
var (
	ErrMissingTask     = errors.New("sched: schedule is missing a task")
	ErrDuplicateTask   = errors.New("sched: task placed more than once")
	ErrNegativeStart   = errors.New("sched: task starts before time 0 or ends past the last int64 slot")
	ErrBadMachine      = errors.New("sched: placement names a machine outside the cluster spec")
	ErrDependencyOrder = errors.New("sched: task starts before a parent finishes")
	ErrOverCapacity    = errors.New("sched: schedule exceeds cluster capacity")
	ErrWrongMakespan   = errors.New("sched: recorded makespan does not match placements")
	ErrNilSchedule     = errors.New("sched: nil schedule")
)

// Validate checks that s is a correct schedule for g on the cluster
// described by spec: every task placed exactly once on a machine the spec
// names, no task starting before time 0 or before its parents finish, none
// ending past the last int64 slot, per-machine occupancy within that
// machine's capacity at every slot, and the recorded makespan consistent with
// the placements. Two tasks may overlap in time iff they run on different
// machines. It is a Validator's Validate on fresh scratch.
func Validate(g *dag.Graph, spec cluster.Spec, s *Schedule) error {
	var v Validator
	return v.Validate(g, spec, s)
}

// Segment is a maximal run [Start, End) of schedule-relative slots over which
// a schedule's aggregate demand on one machine is constant and not zero.
type Segment struct {
	Machine    int
	Start, End int64
	Demand     resource.Vector
}

// edge is one end of a placed task's run: from its time on, the schedule's
// aggregate demand on machine is up by the task's demand, or down again. The
// time is kept doubled with the low bit set on a start, so that at one
// instant a machine's ends sort before its starts; every time fits int64, so
// the doubled one fits uint64. Sixteen bytes, because sorting them is most of
// what a sweep costs.
type edge struct {
	at      uint64 // time<<1, |1 for a start
	machine int32
	task    int32
}

func (e edge) time() int64 { return int64(e.at >> 1) }

// A Validator checks schedules as Validate does, keeping its scratch from
// call to call: once warm, accepting a schedule allocates nothing. The zero
// value is ready to use; a Validator is not safe for concurrent use.
type Validator struct {
	start    []int64 // per task; -1 until placed
	edges    []edge
	segments []Segment
	demands  []int64 // the sweep's running sum, then the segments' demand vectors
}

// Segments returns the profile of the schedule the last Validate call
// accepted, ordered by machine and start: its segments, gaps left out and
// equal neighbours merged. Every segment's demand is within its machine's
// capacity. The slice and its vectors are the Validator's scratch, valid
// until the next Validate.
func (v *Validator) Segments() []Segment { return v.segments }

// Validate checks s as the package-level Validate does, and on success leaves
// the schedule's profile behind for Segments.
func (v *Validator) Validate(g *dag.Graph, spec cluster.Spec, s *Schedule) error {
	v.segments = v.segments[:0]
	if s == nil {
		return ErrNilSchedule
	}
	n := g.NumTasks()
	v.start = slices.Grow(v.start[:0], n)[:n]
	for i := range v.start {
		v.start[i] = -1
	}
	v.edges = slices.Grow(v.edges[:0], 2*len(s.Placements))
	for _, p := range s.Placements {
		if int(p.Task) < 0 || int(p.Task) >= n {
			return fmt.Errorf("%w: id %d out of range", ErrMissingTask, p.Task)
		}
		if v.start[p.Task] >= 0 {
			return fmt.Errorf("%w: task %d", ErrDuplicateTask, p.Task)
		}
		runtime := g.Task(p.Task).Runtime
		if p.Start < 0 || p.Start > math.MaxInt64-runtime {
			return fmt.Errorf("%w: task %d at %d for %d slots", ErrNegativeStart, p.Task, p.Start, runtime)
		}
		if p.Machine < 0 || p.Machine >= len(spec) {
			return fmt.Errorf("%w: task %d on machine %d of %d", ErrBadMachine, p.Task, p.Machine, len(spec))
		}
		v.start[p.Task] = p.Start
		v.edges = append(v.edges,
			edge{uint64(p.Start)<<1 | 1, int32(p.Machine), int32(p.Task)},
			edge{uint64(p.Start+runtime) << 1, int32(p.Machine), int32(p.Task)})
	}
	for id, at := range v.start {
		if at < 0 {
			return fmt.Errorf("%w: task %d", ErrMissingTask, id)
		}
	}

	var makespan int64
	for id, at := range v.start {
		finish := at + g.Task(dag.TaskID(id)).Runtime
		if finish > makespan {
			makespan = finish
		}
		for _, parent := range g.Pred(dag.TaskID(id)) {
			parentFinish := v.start[parent] + g.Task(parent).Runtime
			if at < parentFinish {
				return fmt.Errorf("%w: task %d starts at %d, parent %d finishes at %d",
					ErrDependencyOrder, id, at, parent, parentFinish)
			}
		}
	}
	if s.Makespan != makespan {
		return fmt.Errorf("%w: recorded %d, actual %d", ErrWrongMakespan, s.Makespan, makespan)
	}

	if err := spec.Validate(); err != nil {
		return err
	}
	dims := spec.Dims()
	if n > 0 && g.Dims() != dims {
		return fmt.Errorf("%w: %d-dimensional tasks: %v", ErrOverCapacity, g.Dims(), resource.ErrDimensionMismatch)
	}
	return v.sweep(g, spec, dims)
}

// sweep walks the placements' start and end edges in (machine, time) order
// with the running demand of the machine, which changes only at an edge. At
// an instant the ends come first, so the sum only grows through the starts
// that follow, and each start is checked against the capacity before it is
// added: the sum never leaves [0, capacity], and cannot wrap. Once an
// instant's edges are in, the sum is the machine's occupancy until its next
// edge. Between edges of one machine a non-zero sum is a segment, merged into
// the one before it when that one ends where it begins with the same demand.
func (v *Validator) sweep(g *dag.Graph, spec cluster.Spec, dims int) error {
	slices.SortFunc(v.edges, func(a, b edge) int {
		if a.machine != b.machine {
			return int(a.machine - b.machine) // both in [0, len(spec))
		}
		return cmp.Compare(a.at, b.at)
	})
	// The first dims words are the running sum; a segment's demand is a copy
	// of it appended behind. At most one segment opens per edge, and sized
	// for that up front the array never moves under the vectors cut from it.
	v.demands = slices.Grow(v.demands[:0], (len(v.edges)+1)*dims)[:dims]
	sum := resource.Vector(v.demands)
	clear(sum)
	for i, e := range v.edges {
		demand := g.Task(dag.TaskID(e.task)).Demand
		if e.at&1 == 0 {
			for d, need := range demand {
				sum[d] -= need
			}
		} else {
			capacity := spec[e.machine].Capacity
			for d, need := range demand {
				if need > capacity[d]-sum[d] {
					v.segments = v.segments[:0]
					return fmt.Errorf("%w: machine %d holds %v at %d, task %d adds %v, capacity %v",
						ErrOverCapacity, e.machine, sum, e.time(), e.task, demand, capacity)
				}
			}
			for d, need := range demand {
				sum[d] += need
			}
		}
		last := i+1 == len(v.edges) || v.edges[i+1].machine != e.machine
		if last || sum.IsZero() || v.edges[i+1].time() == e.time() {
			continue // past the machine's last edge, a gap, or the instant has more edges
		}
		at, next := e.time(), v.edges[i+1].time()
		if k := len(v.segments) - 1; k >= 0 && v.segments[k].Machine == int(e.machine) &&
			v.segments[k].End == at && v.segments[k].Demand.Equal(sum) {
			v.segments[k].End = next // one task ended where its like began
			continue
		}
		v.demands = append(v.demands, sum...)
		v.segments = append(v.segments, Segment{int(e.machine), at, next, v.demands[len(v.demands)-dims:]})
	}
	return nil
}

// Gantt renders the schedule as an ASCII chart, one row per task ordered by
// start time, with the timeline scaled to at most width characters.
// When some task runs on a machine other than 0, each row is annotated with
// its task's machine index; single-machine output is unchanged.
func (s *Schedule) Gantt(g *dag.Graph, width int) string {
	if width < 10 {
		width = 10
	}
	if s.Makespan <= 0 {
		return "(empty schedule)\n"
	}
	scale := float64(width) / float64(s.Makespan)

	ps := make([]Placement, len(s.Placements))
	copy(ps, s.Placements)
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Start != ps[j].Start {
			return ps[i].Start < ps[j].Start
		}
		return ps[i].Task < ps[j].Task
	})

	multi := s.onManyMachines()
	var b strings.Builder
	fmt.Fprintf(&b, "%s  makespan=%d\n", s.Algorithm, s.Makespan)
	for _, p := range ps {
		task := g.Task(p.Task)
		from := int(float64(p.Start) * scale)
		to := int(float64(p.Start+task.Runtime) * scale)
		if to <= from {
			to = from + 1
		}
		if to > width {
			to = width
		}
		fmt.Fprintf(&b, "%-12s |%s%s%s| [%d,%d)",
			truncate(task.Name, 12),
			strings.Repeat(" ", from),
			strings.Repeat("#", to-from),
			strings.Repeat(" ", width-to),
			p.Start, p.Start+task.Runtime)
		if multi {
			fmt.Fprintf(&b, " m%d", p.Machine)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// onManyMachines reports whether some placement runs on a machine other
// than 0, in which case Gantt and WriteSVG tag each row with its machine.
func (s *Schedule) onManyMachines() bool {
	return slices.ContainsFunc(s.Placements, func(p Placement) bool { return p.Machine != 0 })
}

// truncate shortens s to at most n runes, replacing the tail with an
// ellipsis. It counts runes, not bytes: byte slicing would split multi-byte
// UTF-8 sequences and emit invalid output for non-ASCII task names.
func truncate(s string, n int) string {
	if utf8.RuneCountInString(s) <= n {
		return s
	}
	runes := []rune(s)
	return string(runes[:n-1]) + "…"
}
