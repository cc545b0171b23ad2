package dag

// Additional classic DAG-scheduling analyses beyond the b-level family the
// policy network consumes: t-levels (earliest possible start times on an
// infinite cluster) and the number of levels.

// TLevels returns, per task, the length of the longest runtime path from
// any entry task to the task (exclusive of the task itself) — the earliest
// time the task could start given unlimited resources.
func (g *Graph) TLevels() []int64 {
	tl := make([]int64, len(g.tasks))
	for _, v := range g.topo {
		for _, p := range g.pred[v] {
			if cand := tl[p] + g.tasks[p].Runtime; cand > tl[v] {
				tl[v] = cand
			}
		}
	}
	return tl
}

// NumLevels reports the number of levels, where a task's level is its
// longest edge-count distance from an entry task (depth of the DAG + 1).
func (g *Graph) NumLevels() int {
	lv := make([]int, len(g.tasks))
	depth := 0
	for _, v := range g.topo {
		for _, p := range g.pred[v] {
			lv[v] = max(lv[v], lv[p]+1)
		}
		depth = max(depth, lv[v])
	}
	return depth + 1
}
