package mcts

// transTable is the transposition table of one search tree: it maps the
// canonical environment state hash (simenv.Env.StateHash — clock, ready
// set, running occupancy, done set, order-independent by construction) to
// a shared nodeStats block, so states reached via different schedule
// orders pool their statistics. Entries persist across the decisions of
// one Schedule call — transpositions routinely straddle decision
// boundaries — and are cleared between calls, when the arena reclaims the
// blocks. Like the arena it is touched only under the tree lock.
//
// The table is bounded: once it holds cap entries, the next miss flushes
// the whole map (the cheapest possible eviction, and the only
// deterministic one — evicting by map iteration order would make the
// shared statistics depend on Go's randomized hashing). Previously
// returned block indices stay valid across a flush because the arena
// never recycles stats blocks mid-call; the flush only forgets the
// hash→block associations, so later visits to a flushed state open a
// fresh block instead of pooling — a graceful degradation that caps
// memory at cap entries per tree.
type transTable struct {
	m   map[uint64]int32
	cap int
	// hits, misses and evictions count this Schedule call's lookups and the
	// entries dropped by capacity flushes; the call's stats harvest zeroes
	// them.
	hits, misses, evictions int64
}

// reset clears the table and installs the capacity for the coming Schedule
// call. clear keeps the map's buckets, so steady-state Schedule calls reuse
// the storage.
func (t *transTable) reset(capacity int) {
	t.cap = capacity
	if t.m == nil {
		t.m = make(map[uint64]int32, 1<<10)
		return
	}
	clear(t.m)
}

// lookupOrCreate returns the stats block index for hash h; on a miss a fresh
// block is drawn from the arena and registered, flushing the table first if
// it is at capacity. The arena
// never recycles stats blocks mid-call, so a returned index stays valid
// even after every node referencing it was freed — or after the entry
// itself was flushed.
func (t *transTable) lookupOrCreate(h uint64, ar *nodeArena) int32 {
	if idx, ok := t.m[h]; ok {
		t.hits++
		return idx
	}
	t.misses++
	if len(t.m) >= t.cap {
		t.evictions += int64(len(t.m))
		clear(t.m)
	}
	idx := ar.allocStats()
	t.m[h] = idx
	return idx
}
