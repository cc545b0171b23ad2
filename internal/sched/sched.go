// Package sched defines the common contract between scheduling algorithms:
// the Scheduler interface, the Schedule result type, and a validator that
// checks the two correctness invariants every schedule must satisfy —
// dependency order and per-slot, per-machine capacity.
package sched

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
	"unicode/utf8"

	"spear/internal/cluster"
	"spear/internal/dag"
)

// Schedule JSON documents are versioned by the "format" field. A document
// with no format field (0) is the original single-machine shape, as is an
// explicit FormatSingle; FormatMulti adds a machine index per placement.
// Loaders accept all three and reject anything newer with a precise error.
const (
	FormatSingle = 1
	FormatMulti  = 2
)

// CheckFormat validates a schedule document's format field.
func CheckFormat(format int) error {
	if format < 0 || format > FormatMulti {
		return fmt.Errorf("sched: unknown schedule format %d (this build understands formats up to %d)", format, FormatMulti)
	}
	return nil
}

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
	// Format is the JSON document version (see FormatSingle/FormatMulti).
	// It is 0, and omitted, for single-machine schedules — the legacy
	// shape — and FormatMulti when placements carry machine indices.
	Format int `json:"format,omitempty"`
	// Algorithm names the scheduler that produced this schedule.
	Algorithm string `json:"algorithm"`
	// Placements holds one entry per task in the DAG.
	Placements []Placement `json:"placements"`
	// Makespan is the finish time of the last task (start times are
	// relative to 0).
	Makespan int64 `json:"makespan"`
	// Elapsed is the wall-clock time the scheduler spent producing the
	// schedule (serialized as nanoseconds). Used by the Fig. 6(b) and
	// Table I experiments.
	Elapsed time.Duration `json:"elapsedNanos"`
}

// LoadSchedule reads a schedule document previously serialized as JSON,
// accepting both the legacy single-machine shape and the current
// multi-machine one. Unknown format versions are rejected.
func LoadSchedule(r io.Reader) (*Schedule, error) {
	var s Schedule
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("sched: decode schedule: %w", err)
	}
	if err := CheckFormat(s.Format); err != nil {
		return nil, err
	}
	return &s, nil
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
	ErrNegativeStart   = errors.New("sched: task starts before time 0")
	ErrBadMachine      = errors.New("sched: placement names a machine outside the cluster spec")
	ErrDependencyOrder = errors.New("sched: task starts before a parent finishes")
	ErrOverCapacity    = errors.New("sched: schedule exceeds cluster capacity")
	ErrWrongMakespan   = errors.New("sched: recorded makespan does not match placements")
	ErrNilSchedule     = errors.New("sched: nil schedule")
)

// Validate checks that s is a correct schedule for g on the cluster
// described by spec: every task placed exactly once on a machine the spec
// names, no task starting before time 0 or before its parents finish,
// per-machine occupancy within that machine's capacity at every slot, and
// the recorded makespan consistent with the placements. Two tasks may
// overlap in time iff they run on different machines.
func Validate(g *dag.Graph, spec cluster.Spec, s *Schedule) error {
	if s == nil {
		return ErrNilSchedule
	}
	n := g.NumTasks()
	start := make([]int64, n)
	machine := make([]int, n)
	seen := make([]bool, n)
	for _, p := range s.Placements {
		if int(p.Task) < 0 || int(p.Task) >= n {
			return fmt.Errorf("%w: id %d out of range", ErrMissingTask, p.Task)
		}
		if seen[p.Task] {
			return fmt.Errorf("%w: task %d", ErrDuplicateTask, p.Task)
		}
		seen[p.Task] = true
		if p.Start < 0 {
			return fmt.Errorf("%w: task %d at %d", ErrNegativeStart, p.Task, p.Start)
		}
		if p.Machine < 0 || p.Machine >= len(spec) {
			return fmt.Errorf("%w: task %d on machine %d of %d", ErrBadMachine, p.Task, p.Machine, len(spec))
		}
		start[p.Task] = p.Start
		machine[p.Task] = p.Machine
	}
	for id := 0; id < n; id++ {
		if !seen[id] {
			return fmt.Errorf("%w: task %d", ErrMissingTask, id)
		}
	}

	var makespan int64
	for id := 0; id < n; id++ {
		finish := start[id] + g.Task(dag.TaskID(id)).Runtime
		if finish > makespan {
			makespan = finish
		}
		for _, parent := range g.Pred(dag.TaskID(id)) {
			parentFinish := start[parent] + g.Task(parent).Runtime
			if start[id] < parentFinish {
				return fmt.Errorf("%w: task %d starts at %d, parent %d finishes at %d",
					ErrDependencyOrder, id, start[id], parent, parentFinish)
			}
		}
	}
	if s.Makespan != makespan {
		return fmt.Errorf("%w: recorded %d, actual %d", ErrWrongMakespan, s.Makespan, makespan)
	}

	space, err := cluster.NewMulti(spec)
	if err != nil {
		return err
	}
	// Place in start order, for stable error messages and because a grid
	// only ever asked about its latest start decides each fit from one row
	// instead of the task's whole duration (see cluster.Space).
	order := make([]dag.TaskID, n)
	for i := range order {
		order[i] = dag.TaskID(i)
	}
	sort.Slice(order, func(i, j int) bool { return start[order[i]] < start[order[j]] })
	for _, id := range order {
		task := g.Task(id)
		if err := space.Place(machine[id], start[id], task.Demand, task.Runtime); err != nil {
			return fmt.Errorf("%w: task %d at %d: %v", ErrOverCapacity, id, start[id], err)
		}
	}
	return nil
}

// Gantt renders the schedule as an ASCII chart, one row per task ordered by
// start time, with the timeline scaled to at most width characters.
// Multi-machine schedules (FormatMulti) annotate each row with the task's
// machine index; single-machine output is unchanged.
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

	multi := s.Format == FormatMulti
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
