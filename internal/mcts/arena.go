package mcts

import (
	"math"

	"spear/internal/simenv"
)

// The search tree lives in a per-tree arena instead of individually
// heap-allocated nodes: nodes are addressed by int32 index into chunked
// storage, child links are indices, and a freelist recycles the slots (and
// their env/untried buffers) of subtrees discarded between decisions — so a
// warm Schedule call expands nodes without allocating. Chunks never move once
// allocated, so a *anode stays valid across growth: a shared-tree worker
// keeps its leaf's pointer for the rollout it plays outside the tree lock.
// Every field of the arena, its nodes and their statistics is read and
// written only under the owning treeWorker's lock (or between search
// phases, when no worker runs).

const (
	// arenaChunkBits sizes one storage chunk at 512 nodes: big enough that
	// growth is rare, small enough that shallow searches stay cheap.
	arenaChunkBits = 9
	arenaChunkSize = 1 << arenaChunkBits
	arenaChunkMask = arenaChunkSize - 1

	// nilNode is the null node/stats index (links, empty freelist slots).
	nilNode = int32(-1)

	// unvisitedMax marks a stats block with no backed-up value yet: every
	// real value (a negated makespan) exceeds it, so the first backup always
	// installs its value. It is the fixed-point analogue of -Inf.
	unvisitedMax = int64(math.MinInt64)
)

// anode is one search-tree state in arena storage, reached by applying
// action to the parent's state. Sibling lists replace the child slice:
// first/next form a singly linked chain in creation order (the classic
// tiebreak order), last lets expansion append in O(1). Statistics live in a
// separate nodeStats block addressed by stats — with the transposition table
// on, several nodes can share one block.
type anode struct {
	env     *simenv.Env
	untried []simenv.Action
	action  simenv.Action
	parent  int32
	first   int32
	last    int32
	next    int32
	stats   int32
}

// nodeStats is one node's (or, under transpositions, one state's) search
// statistics in unit-scale fixed point: values are negated integer
// makespans, so int64 accumulation is exact and bit-compatible with the
// float64 arithmetic it replaced. vloss counts the virtual losses of
// shared-tree descents in flight (applied on the way down, reverted on
// backup).
type nodeStats struct {
	visits int64
	sum    int64
	max    int64
	vloss  int64
}

// reset returns a (fresh or recycled) block to the unvisited state.
func (st *nodeStats) reset() {
	st.visits, st.sum, st.max, st.vloss = 0, 0, unvisitedMax, 0
}

// add folds one backed-up value into the block.
func (st *nodeStats) add(v int64) {
	st.visits++
	st.sum += v
	if v > st.max {
		st.max = v
	}
}

// mean returns the average backed-up value, or -Inf for an unvisited block:
// 0/0 would be NaN, and NaN compares false against everything, which would
// silently mis-order the committed-move choice.
func (st *nodeStats) mean() float64 {
	if st.visits == 0 {
		return math.Inf(-1)
	}
	return float64(st.sum) / float64(st.visits)
}

// better reports whether st is a strictly better committed move than o: max
// value with mean tiebreak (§IV). The max comparison is exact integer
// arithmetic — values are negated integer makespans — so equal maxes are
// identical and only then may the mean break the tie. Unvisited blocks carry
// max = unvisitedMax and mean -Inf, so they never beat a visited sibling.
func (st *nodeStats) better(o *nodeStats) bool {
	if st.max != o.max {
		return st.max > o.max
	}
	return st.mean() > o.mean()
}

// ucb is Eq. 5 over the block: max value plus the scaled exploration bonus,
// mean as an implicit tiebreak via a tiny epsilon weight. parentEff is the
// parent's effective visit count (true visits plus outstanding virtual
// losses). A block with no real visits scores +Inf (first-visit priority)
// unless a virtual loss marks it as already being explored by another
// worker, in which case it scores -Inf so the workers de-correlate.
// Exploitation uses true visits only; virtual losses discount the
// exploration term through the visit counts rather than poisoning the value
// sums, so reverting them on backup restores the exact serial statistics.
func (st *nodeStats) ucb(c float64, parentEff int64) float64 {
	if st.visits == 0 {
		if st.vloss > 0 {
			return math.Inf(-1)
		}
		return math.Inf(1)
	}
	exploit := float64(st.max) + float64(1e-6*st.mean()) // float64 rounds: no fused multiply-add
	explore := c * math.Sqrt(math.Log(float64(parentEff+1))/float64(st.visits+st.vloss))
	return exploit + float64(explore) // float64 rounds: no fused multiply-add
}

// nodeArena owns one tree's node and stats storage. Slots keep their env and
// untried buffers when freed or when the arena resets, so reallocating a
// slot reuses the warm storage.
type nodeArena struct {
	nodes [][]anode
	stats [][]nodeStats
	nlen  int32   // node slots handed out this call (freelist aside)
	slen  int32   // stats blocks handed out this call (transposition mode)
	free  []int32 // recycled node slots
	stack []int32 // releaseSubtree's DFS scratch
}

// reset prepares the arena for a fresh Schedule call: all slots and blocks
// are considered free again, but chunk storage and the buffers attached to
// every slot survive, so the call allocates nothing once past the
// first-call high-water mark.
func (a *nodeArena) reset() {
	a.free = a.free[:0]
	a.stack = a.stack[:0]
	a.nlen, a.slen = 0, 0
}

// node returns the slot for index i.
func (a *nodeArena) node(i int32) *anode {
	return &a.nodes[i>>arenaChunkBits][i&arenaChunkMask]
}

// nstats returns the stats block for index i.
func (a *nodeArena) nstats(i int32) *nodeStats {
	return &a.stats[i>>arenaChunkBits][i&arenaChunkMask]
}

// alloc hands out a node slot: recycled from the freelist when possible,
// fresh (growing the chunk list) otherwise. Link fields are reset; env and
// untried keep whatever storage the slot held, for the caller to reuse. With
// shared=false (no transposition table) the slot's stats block is the 1:1
// block at the node's own index, reset here; with shared=true the caller
// assigns stats from a table lookup.
func (a *nodeArena) alloc(shared bool) int32 {
	var idx int32
	if n := len(a.free); n > 0 {
		idx = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		idx = a.nlen
		if int(idx)>>arenaChunkBits >= len(a.nodes) {
			a.grow()
		}
		a.nlen++
	}
	n := a.node(idx)
	n.action = 0
	n.parent, n.first, n.last, n.next = nilNode, nilNode, nilNode, nilNode
	if shared {
		n.stats = nilNode
	} else {
		n.stats = idx
		a.nstats(idx).reset()
	}
	return idx
}

// allocStats hands out a stats block for the transposition table. Blocks are
// never recycled within a Schedule call — table entries may outlive every
// node that referenced them — only reset() reclaims them.
func (a *nodeArena) allocStats() int32 {
	idx := a.slen
	if int(idx)>>arenaChunkBits >= len(a.stats) {
		a.growStats()
	}
	a.slen++
	a.nstats(idx).reset()
	return idx
}

// grow appends one node chunk (and keeps a 1:1 stats chunk alongside, so
// non-transposition mode can mirror node indices). Existing chunks are
// shared with the old chunk list, so outstanding *anode pointers stay valid.
func (a *nodeArena) grow() {
	a.nodes = append(a.nodes, make([]anode, arenaChunkSize))
	for len(a.stats) < len(a.nodes) {
		a.growStats()
	}
}

// growStats appends one stats chunk.
func (a *nodeArena) growStats() {
	a.stats = append(a.stats, make([]nodeStats, arenaChunkSize))
}

// release returns one node slot to the freelist; the slot keeps its env and
// untried storage.
func (a *nodeArena) release(idx int32) {
	a.free = append(a.free, idx)
}

// releaseSubtree returns idx and every descendant to the freelist.
func (a *nodeArena) releaseSubtree(idx int32) {
	a.stack = append(a.stack[:0], idx)
	for len(a.stack) > 0 {
		cur := a.stack[len(a.stack)-1]
		a.stack = a.stack[:len(a.stack)-1]
		for ch := a.node(cur).first; ch != nilNode; ch = a.node(ch).next {
			a.stack = append(a.stack, ch)
		}
		a.free = append(a.free, cur)
	}
}
