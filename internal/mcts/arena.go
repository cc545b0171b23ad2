package mcts

import (
	"math"
	"sync"
	"sync/atomic"

	"spear/internal/simenv"
)

// The search tree lives in a per-worker arena instead of individually
// heap-allocated nodes: nodes are addressed by int32 index into chunked
// storage, child links are indices, and a freelist recycles the slots (and
// their env/untried buffers) of subtrees discarded between decisions — so a
// warm Schedule call expands nodes without allocating. Chunks never move
// once published, which is what lets shared-tree workers hold *anode
// pointers across a concurrent growth: growth copies only the outer chunk
// table and republishes it through an atomic pointer.

const (
	// arenaChunkBits sizes one storage chunk at 512 nodes (32 KiB of anodes,
	// 16 KiB of stats blocks): big enough that growth is rare, small enough
	// that shallow searches stay cheap.
	arenaChunkBits = 9
	arenaChunkSize = 1 << arenaChunkBits
	arenaChunkMask = arenaChunkSize - 1

	// nilNode is the null node/stats index (links, empty freelist slots).
	nilNode = int32(-1)

	// unvisitedMax marks a stats block with no backed-up value yet: every
	// real value (a negated makespan) exceeds it, so the first backup's CAS
	// always installs. It is the fixed-point analogue of -Inf.
	unvisitedMax = int64(math.MinInt64)
)

// anode is one search-tree state in arena storage, reached by applying
// action to the parent's state. Sibling lists replace the child slice:
// first/next form a singly linked chain in creation order (the classic
// tiebreak order), last lets the expansion latch holder append in O(1).
// Statistics live in a separate nodeStats block addressed by stats — with
// the transposition table on, several nodes can share one block. nuntried
// mirrors len(untried) atomically so selection can test expandability
// without taking the latch; untried itself is only touched by the latch
// holder. first, next, nuntried and latch are accessed atomically.
type anode struct {
	env      *simenv.Env
	untried  []simenv.Action
	action   simenv.Action
	parent   int32
	first    int32 //spear:atomic
	last     int32
	next     int32 //spear:atomic
	stats    int32
	nuntried int32 //spear:atomic
	latch    int32 //spear:atomic
}

// nodeStats is one node's (or, under transpositions, one state's) search
// statistics in unit-scale fixed point: values are negated integer
// makespans, so int64 accumulation is exact and bit-compatible with the
// float64 arithmetic it replaced. All fields are accessed atomically; max
// is updated with a CAS loop, vloss is the virtual-loss mark count of
// shared-tree descents (applied on the way down, reverted on backup).
type nodeStats struct {
	visits int64 //spear:atomic
	sum    int64 //spear:atomic
	max    int64 //spear:atomic
	vloss  int64 //spear:atomic
}

// resetStats returns a (fresh or recycled) stats block to the unvisited
// state. Atomic stores, so a block published to concurrent readers in the
// same search phase is initialized race-free.
func resetStats(st *nodeStats) {
	atomic.StoreInt64(&st.visits, 0)
	atomic.StoreInt64(&st.sum, 0)
	atomic.StoreInt64(&st.max, unvisitedMax)
	atomic.StoreInt64(&st.vloss, 0)
}

// arenaTable is the immutable chunk directory: growth copies the outer
// slices and republishes, existing chunks are shared and never move.
type arenaTable struct {
	nodes [][]anode
	stats [][]nodeStats
}

// nodeArena owns one tree worker's node and stats storage. alloc/allocStats
// are safe for concurrent use (expansion under latches); release,
// releaseSubtree and reset run only in the single-threaded spans between
// search phases. Slots keep their env and untried buffers when freed or
// when the arena resets, so reallocating a slot reuses the warm storage.
type nodeArena struct {
	mu    sync.Mutex
	table atomic.Pointer[arenaTable] //spear:atomic
	nlen  int32                      //spear:guardedby(mu) — node slots handed out this call (freelist aside)
	slen  int32                      //spear:guardedby(mu) — stats blocks handed out this call (transposition mode)
	free  []int32                    //spear:guardedby(mu) — recycled node slots
	stack []int32                    //spear:xclusive — releaseSubtree's DFS scratch, commit phase only
}

// reset prepares the arena for a fresh Schedule call: all slots and blocks
// are considered free again, but chunk storage and the buffers attached to
// every slot survive, so the call allocates nothing once past the
// first-call high-water mark.
//
//spear:xclusive
func (a *nodeArena) reset() {
	if a.table.Load() == nil {
		a.table.Store(&arenaTable{})
	}
	a.free = a.free[:0]
	a.stack = a.stack[:0]
	a.nlen, a.slen = 0, 0
}

// node returns the slot for index i. The table load is atomic, so a worker
// may address slots another worker allocated mid-phase: alloc publishes the
// grown table before the new slot's index can reach anyone.
//
//spear:noalloc
func (a *nodeArena) node(i int32) *anode {
	t := a.table.Load()
	return &t.nodes[i>>arenaChunkBits][i&arenaChunkMask]
}

// nstats returns the stats block for index i.
//
//spear:noalloc
func (a *nodeArena) nstats(i int32) *nodeStats {
	t := a.table.Load()
	return &t.stats[i>>arenaChunkBits][i&arenaChunkMask]
}

// alloc hands out a node slot: recycled from the freelist when possible,
// fresh (growing the chunk table) otherwise. Link and latch fields are
// reset; env and untried keep whatever storage the slot held, for the
// caller to reuse. With shared=false (no transposition table) the slot's
// stats block is the 1:1 block at the node's own index, reset here; with
// shared=true the caller assigns stats from a table lookup.
//
//spear:noalloc
func (a *nodeArena) alloc(shared bool) int32 {
	a.mu.Lock()
	var idx int32
	if n := len(a.free); n > 0 {
		idx = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		idx = a.nlen
		if int(idx)>>arenaChunkBits >= len(a.table.Load().nodes) {
			a.grow()
		}
		a.nlen++
	}
	a.mu.Unlock()
	n := a.node(idx)
	n.action = 0
	n.parent = nilNode
	atomic.StoreInt32(&n.first, nilNode)
	n.last = nilNode
	atomic.StoreInt32(&n.next, nilNode)
	atomic.StoreInt32(&n.nuntried, 0)
	atomic.StoreInt32(&n.latch, 0)
	if shared {
		n.stats = nilNode
	} else {
		n.stats = idx
		resetStats(a.nstats(idx))
	}
	return idx
}

// allocStats hands out a stats block for the transposition table. Blocks
// are never recycled within a Schedule call — table entries may outlive
// every node that referenced them — only reset() reclaims them.
//
//spear:noalloc
func (a *nodeArena) allocStats() int32 {
	a.mu.Lock()
	idx := a.slen
	if int(idx)>>arenaChunkBits >= len(a.table.Load().stats) {
		a.growStats()
	}
	a.slen++
	a.mu.Unlock()
	resetStats(a.nstats(idx))
	return idx
}

// grow appends one node chunk (and keeps a 1:1 stats chunk alongside, so
// non-transposition mode can mirror node indices) and republishes the
// table. Callers hold mu. Existing chunks are shared with the old table,
// so outstanding *anode pointers stay valid.
//
//spear:slowpath
//spear:locked(mu)
func (a *nodeArena) grow() {
	old := a.table.Load()
	t := &arenaTable{
		nodes: append(append([][]anode(nil), old.nodes...), make([]anode, arenaChunkSize)),
		stats: old.stats,
	}
	for len(t.stats) < len(t.nodes) {
		t.stats = append(append([][]nodeStats(nil), t.stats...), make([]nodeStats, arenaChunkSize))
	}
	a.table.Store(t)
}

// growStats appends one stats chunk and republishes the table. Callers
// hold mu.
//
//spear:slowpath
//spear:locked(mu)
func (a *nodeArena) growStats() {
	old := a.table.Load()
	t := &arenaTable{
		nodes: old.nodes,
		stats: append(append([][]nodeStats(nil), old.stats...), make([]nodeStats, arenaChunkSize)),
	}
	a.table.Store(t)
}

// release returns one node slot to the freelist. Commit-phase only (no
// search goroutines running); the slot keeps its env and untried storage.
//
//spear:slowpath
//spear:xclusive
func (a *nodeArena) release(idx int32) {
	a.free = append(a.free, idx)
}

// releaseSubtree returns idx and every descendant to the freelist.
// Commit-phase only.
//
//spear:slowpath
//spear:xclusive
func (a *nodeArena) releaseSubtree(idx int32) {
	a.stack = append(a.stack[:0], idx)
	for len(a.stack) > 0 {
		cur := a.stack[len(a.stack)-1]
		a.stack = a.stack[:len(a.stack)-1]
		n := a.node(cur)
		for ch := atomic.LoadInt32(&n.first); ch != nilNode; ch = atomic.LoadInt32(&a.node(ch).next) {
			a.stack = append(a.stack, ch)
		}
		a.free = append(a.free, cur)
	}
}

// statsSnap is a point-in-time copy of a stats block, taken by the
// single-threaded choose/merge spans after a search phase joined — the
// loads are atomic and the snapshot exact.
type statsSnap struct {
	visits int64
	sum    int64
	max    int64
}

func snapStats(st *nodeStats) statsSnap {
	return statsSnap{
		visits: atomic.LoadInt64(&st.visits),
		sum:    atomic.LoadInt64(&st.sum),
		max:    atomic.LoadInt64(&st.max),
	}
}

// mean returns the average backed-up value, or -Inf for an unvisited
// block: 0/0 would be NaN, and NaN compares false against everything,
// which would silently mis-order the committed-move choice.
func (a statsSnap) mean() float64 {
	if a.visits == 0 {
		return math.Inf(-1)
	}
	return float64(a.sum) / float64(a.visits)
}

// better reports whether a is a strictly better committed move than b:
// max value with mean tiebreak (§IV). The max comparison is exact integer
// arithmetic — values are negated integer makespans — so equal maxes are
// identical and only then may the mean break the tie. Unvisited blocks
// carry max = unvisitedMax and mean -Inf, so they never beat a visited
// sibling.
func (a statsSnap) better(b statsSnap) bool {
	if a.max != b.max {
		return a.max > b.max
	}
	return a.mean() > b.mean()
}

// ucbScore is Eq. 5 over a stats block: max value plus the scaled
// exploration bonus, mean as an implicit tiebreak via a tiny epsilon
// weight. parentEff is the parent's effective visit count (true visits
// plus outstanding virtual losses). A block with no real visits scores
// +Inf (first-visit priority) unless a virtual loss marks it as already
// being explored by another worker, in which case it scores -Inf so the
// workers de-correlate. Exploitation uses true visits only; virtual
// losses discount the exploration term through the visit counts rather
// than poisoning the value sums, so reverting them on backup restores the
// exact serial statistics.
//
//spear:noalloc
func ucbScore(st *nodeStats, c float64, parentEff int64) float64 {
	visits := atomic.LoadInt64(&st.visits)
	vloss := atomic.LoadInt64(&st.vloss)
	if visits == 0 {
		if vloss > 0 {
			return math.Inf(-1)
		}
		return math.Inf(1)
	}
	sum := atomic.LoadInt64(&st.sum)
	max := atomic.LoadInt64(&st.max)
	mean := float64(sum) / float64(visits)
	exploit := float64(max) + 1e-6*mean
	explore := c * math.Sqrt(math.Log(float64(parentEff+1))/float64(visits+vloss))
	return exploit + explore
}
