package simenv

import (
	"spear/internal/dag"
	"spear/internal/resource"
)

// The O(tasks) status scans that the running list and lastFinish replaced,
// kept as the references the episode oracle compares the Env with.

// scanRunning returns the running tasks in ascending ID order.
func (e *Env) scanRunning() []dag.TaskID {
	var ids []dag.TaskID
	for id, st := range e.status {
		if st == statusRunning {
			ids = append(ids, dag.TaskID(id))
		}
	}
	return ids
}

// scanEarliestFinish returns the minimum finish among running tasks.
func (e *Env) scanEarliestFinish() (int64, bool) {
	ids := e.scanRunning()
	if len(ids) == 0 {
		return 0, false
	}
	earliest := e.finish[ids[0]]
	for _, id := range ids {
		earliest = min(earliest, e.finish[id])
	}
	return earliest, true
}

// scanMakespan returns the latest finish among running and done tasks.
func (e *Env) scanMakespan() int64 {
	var m int64
	for id, st := range e.status {
		if st == statusRunning || st == statusDone {
			m = max(m, e.finish[id])
		}
	}
	return m
}

// scanReadyAfter predicts the ready queue after action a from the state
// before it: a schedule action drops its slot; Process completes, in
// (finish, ID) order, every running task due by the target and appends each
// one's newly ready children in ID order. e is not modified.
func (e *Env) scanReadyAfter(a Action) []dag.TaskID {
	ready := append([]dag.TaskID(nil), e.ready...)
	if a != Process {
		return append(ready[:a.Slot()], ready[a.Slot()+1:]...)
	}
	target := e.now + 1
	if e.cfg.Mode == NextCompletion {
		target, _ = e.scanEarliestFinish()
	}
	var completed []dag.TaskID
	for _, id := range e.scanRunning() {
		if e.finish[id] <= target {
			completed = append(completed, id)
		}
	}
	// Ascending IDs already; a stable sort by finish gives (finish, ID).
	for i := 1; i < len(completed); i++ {
		for j := i; j > 0 && e.finish[completed[j]] < e.finish[completed[j-1]]; j-- {
			completed[j], completed[j-1] = completed[j-1], completed[j]
		}
	}
	missing := append([]int32(nil), e.missingParents...)
	for _, id := range completed {
		first := len(ready)
		for _, child := range e.g.Succ(id) {
			missing[child]--
			if missing[child] == 0 {
				ready = append(ready, child)
			}
		}
		newly := ready[first:]
		for i := 1; i < len(newly); i++ {
			for j := i; j > 0 && newly[j] < newly[j-1]; j-- {
				newly[j], newly[j-1] = newly[j-1], newly[j]
			}
		}
	}
	return ready
}

// scanOccupancy returns each machine's occupancy over the horizon slots
// from now, occ[m][k] at time now+k: the demands of the tasks started on
// machine m and still running then, read from start, finish and machine.
func (e *Env) scanOccupancy(horizon int) [][]resource.Vector {
	occ := make([][]resource.Vector, len(e.spec))
	for m := range occ {
		occ[m] = make([]resource.Vector, horizon)
		for k := range occ[m] {
			t := e.now + int64(k)
			occ[m][k] = resource.New(len(e.total))
			for id := range e.status {
				if int(e.machine[id]) == m && e.start[id] <= t && t < e.finish[id] {
					occ[m][k], _ = occ[m][k].Add(e.g.Task(dag.TaskID(id)).Demand)
				}
			}
		}
	}
	return occ
}

// scanLegal is LegalActionsInto without the running set: a visible ready task may
// start on a machine iff, in every slot of its whole duration, the demands
// of the tasks started on that machine and still running then (read from
// start, finish and machine) leave room for it.
func (e *Env) scanLegal() []Action {
	if e.Done() {
		return nil
	}
	var legal []Action
	for i := 0; i < e.visibleLen(); i++ {
		task := e.g.Task(e.ready[i])
		for m, mc := range e.spec {
			fits := true
			for t := e.now; t < e.now+task.Runtime && fits; t++ {
				used := task.Demand.Clone()
				for id := range e.status {
					if int(e.machine[id]) == m && e.start[id] <= t && t < e.finish[id] {
						used, _ = used.Add(e.g.Task(dag.TaskID(id)).Demand)
					}
				}
				fits = used.FitsWithin(mc.Capacity)
			}
			if fits {
				legal = append(legal, At(i, m))
			}
		}
	}
	if len(e.scanRunning()) > 0 {
		legal = append(legal, Process)
	}
	return legal
}
