package dag

// Additional classic DAG-scheduling analyses beyond the b-level family the
// policy network consumes: t-levels (earliest possible start times on an
// infinite cluster) and the level decomposition used by the level-by-level schedulers the paper's related
// work discusses.

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

// Levels returns the level decomposition: level(v) = longest edge-count
// distance from an entry task. Level-by-level schedulers process one level
// entirely before the next — ignoring that tasks from different levels can
// overlap, which is why the paper's related work calls them "naturally
// sub-optimal".
func (g *Graph) Levels() []int {
	lv := make([]int, len(g.tasks))
	for _, v := range g.topo {
		for _, p := range g.pred[v] {
			if lv[p]+1 > lv[v] {
				lv[v] = lv[p] + 1
			}
		}
	}
	return lv
}

// NumLevels reports the number of distinct levels (depth of the DAG + 1).
func (g *Graph) NumLevels() int {
	max := 0
	for _, l := range g.Levels() {
		if l > max {
			max = l
		}
	}
	return max + 1
}
