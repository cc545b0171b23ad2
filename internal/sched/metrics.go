package sched

import (
	"sort"

	"spear/internal/cluster"
	"spear/internal/dag"
)

// MachineUtilization is one machine's share of a schedule's work.
type MachineUtilization struct {
	// Machine names the machine (from the cluster spec).
	Machine string
	// PerDim is, per resource dimension, the occupied fraction of this
	// machine's capacity x makespan rectangle, in [0, 1].
	PerDim []float64
	// Mean averages PerDim.
	Mean float64
	// Tasks counts placements routed to this machine.
	Tasks int
}

// Utilization summarizes how densely a schedule packs the cluster.
type Utilization struct {
	// PerDim is, per resource dimension, the occupied fraction of the
	// aggregate capacity x makespan rectangle, in [0, 1].
	PerDim []float64
	// Mean averages PerDim.
	Mean float64
	// IdleSlots counts time slots in [0, makespan) where the whole cluster
	// is completely empty (possible only through scheduler idling, since a
	// valid schedule's makespan is tight).
	IdleSlots int64
	// PerMachine breaks the utilization down by machine, in spec order.
	// For a one-machine spec it has a single entry equal to the aggregate.
	PerMachine []MachineUtilization
}

// ComputeUtilization reports the resource utilization of a schedule, both
// aggregated across the cluster and per machine. It first validates the
// schedule against the same spec and returns Validate's error, if any.
func ComputeUtilization(g *dag.Graph, spec cluster.Spec, s *Schedule) (Utilization, error) {
	if err := Validate(g, spec, s); err != nil {
		return Utilization{}, err
	}
	dims := g.Dims()
	total := spec.Total()
	work := make([]int64, dims)
	perMachineWork := make([][]int64, len(spec))
	perMachineTasks := make([]int, len(spec))
	for i := range perMachineWork {
		perMachineWork[i] = make([]int64, dims)
	}
	for _, p := range s.Placements {
		task := g.Task(p.Task)
		perMachineTasks[p.Machine]++
		for d := 0; d < dims; d++ {
			work[d] += task.Runtime * task.Demand[d]
			perMachineWork[p.Machine][d] += task.Runtime * task.Demand[d]
		}
	}

	u := Utilization{PerDim: make([]float64, dims)}
	for d := 0; d < dims; d++ {
		u.PerDim[d] = float64(work[d]) / float64(total[d]*s.Makespan)
		u.Mean += u.PerDim[d]
	}
	u.Mean /= float64(dims)

	u.PerMachine = make([]MachineUtilization, len(spec))
	for i, m := range spec {
		mu := MachineUtilization{Machine: m.Name, PerDim: make([]float64, dims), Tasks: perMachineTasks[i]}
		for d := 0; d < dims; d++ {
			mu.PerDim[d] = float64(perMachineWork[i][d]) / float64(m.Capacity[d]*s.Makespan)
			mu.Mean += mu.PerDim[d]
		}
		mu.Mean /= float64(dims)
		u.PerMachine[i] = mu
	}

	// Sweep the busy intervals to count fully idle slots. The sweep merges
	// the placement intervals instead of materializing a per-slot bitmap:
	// its cost is O(tasks log tasks) regardless of the makespan, which one
	// long task can make billions of slots.
	busy := make([]busyInterval, 0, len(s.Placements))
	for _, p := range s.Placements {
		busy = append(busy, busyInterval{p.Start, p.Start + g.Task(p.Task).Runtime})
	}
	sort.Slice(busy, func(i, j int) bool {
		if busy[i].start != busy[j].start {
			return busy[i].start < busy[j].start
		}
		return busy[i].end < busy[j].end
	})
	var covered, frontier int64
	for _, iv := range busy {
		if iv.end <= frontier {
			continue
		}
		if iv.start > frontier {
			frontier = iv.start
		}
		covered += iv.end - frontier
		frontier = iv.end
	}
	u.IdleSlots = s.Makespan - covered
	return u, nil
}

// busyInterval is one half-open [start, end) busy span of the cluster.
type busyInterval struct{ start, end int64 }
