package mcts

import (
	"sync"
	"sync/atomic"
)

// transTable is the transposition table of one search tree: it maps the
// canonical environment state hash (simenv.Env.StateHash — clock, ready
// set, running occupancy, done set, order-independent by construction) to
// a shared nodeStats block, so states reached via different schedule
// orders pool their statistics. Entries persist across the decisions of
// one Schedule call — transpositions routinely straddle decision
// boundaries — and are cleared between calls, when the arena reclaims the
// blocks. Point lookups under a plain mutex: node creation is the cold
// edge of the search (a few per iteration at most), so contention is
// negligible next to rollouts.
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
	// evictions counts entries dropped by capacity flushes during the
	// current Schedule call. First field so the raw int64 is 64-bit
	// aligned on 32-bit hosts; updated under mu but read by the stats
	// defer, hence atomic.
	evictions int64 //spear:atomic
	mu        sync.Mutex
	m         map[uint64]int32 //spear:guardedby(mu)
	cap       int              //spear:xclusive — capacity, set by reset between calls
}

// reset clears the table and installs the capacity for the coming Schedule
// call. clear keeps the map's buckets, so steady-state Schedule calls reuse
// the storage.
//
//spear:slowpath
//spear:xclusive
func (t *transTable) reset(capacity int) {
	t.cap = capacity
	atomic.StoreInt64(&t.evictions, 0)
	if t.m == nil {
		t.m = make(map[uint64]int32, 1<<10)
		return
	}
	clear(t.m)
}

// lookupOrCreate returns the stats block index for hash h and whether it
// already existed; on a miss a fresh block is drawn from the arena and
// registered, flushing the table first if it is at capacity. Safe for
// concurrent use. The arena never recycles stats blocks mid-call, so a
// returned index stays valid even after every node referencing it was
// freed — or after the entry itself was flushed.
//
//spear:slowpath
func (t *transTable) lookupOrCreate(h uint64, ar *nodeArena) (int32, bool) {
	t.mu.Lock()
	if idx, ok := t.m[h]; ok {
		t.mu.Unlock()
		return idx, true
	}
	if len(t.m) >= t.cap {
		atomic.AddInt64(&t.evictions, int64(len(t.m)))
		clear(t.m)
	}
	idx := ar.allocStats()
	t.m[h] = idx
	t.mu.Unlock()
	return idx, false
}
