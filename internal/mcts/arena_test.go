package mcts

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"spear/internal/cluster"
	"spear/internal/sched"
	"spear/internal/simenv"
)

// TestArenaFreelistReuseAfterReset pins the slot lifecycle: released slots
// come back LIFO with their buffers attached, releaseSubtree returns whole
// chains, and reset forgets the freelist without discarding chunk storage.
func TestArenaFreelistReuseAfterReset(t *testing.T) {
	var a nodeArena
	a.reset()
	i0 := a.alloc(false)
	i1 := a.alloc(false)
	if i0 != 0 || i1 != 1 {
		t.Fatalf("fresh arena handed out slots %d, %d, want 0, 1", i0, i1)
	}
	a.node(i0).untried = make([]simenv.Action, 0, 17)
	a.release(i0)
	got := a.alloc(false)
	if got != i0 {
		t.Fatalf("alloc after release = slot %d, want recycled slot %d", got, i0)
	}
	if c := cap(a.node(got).untried); c != 17 {
		t.Errorf("recycled slot lost its untried buffer: cap = %d, want 17", c)
	}

	// A parent with two linked children drains as one subtree.
	p, c1, c2 := a.alloc(false), a.alloc(false), a.alloc(false)
	atomic.StoreInt32(&a.node(p).first, c1)
	atomic.StoreInt32(&a.node(c1).next, c2)
	a.releaseSubtree(p)
	if len(a.free) != 3 {
		t.Fatalf("releaseSubtree freed %d slots, want 3", len(a.free))
	}
	recycled := map[int32]bool{a.alloc(false): true, a.alloc(false): true, a.alloc(false): true}
	for _, idx := range []int32{p, c1, c2} {
		if !recycled[idx] {
			t.Errorf("subtree slot %d was not recycled (got %v)", idx, recycled)
		}
	}

	// reset: the freelist and high-water marks clear, chunk storage stays.
	a.release(p)
	table := a.table.Load()
	a.reset()
	if len(a.free) != 0 || a.nlen != 0 || a.slen != 0 {
		t.Fatalf("reset left free=%d nlen=%d slen=%d, want all zero", len(a.free), a.nlen, a.slen)
	}
	if a.table.Load() != table {
		t.Error("reset replaced the chunk table; warm storage was dropped")
	}
	if first := a.alloc(false); first != 0 {
		t.Errorf("first alloc after reset = slot %d, want 0", first)
	}
}

// TestArenaGrowRepublishVisibility drives chunk-table growth while a
// concurrent reader keeps addressing an already-published slot: the atomic
// republish must keep every old index valid mid-grow (run under -race in
// CI), and existing chunks must be shared, never moved or copied.
func TestArenaGrowRepublishVisibility(t *testing.T) {
	var a nodeArena
	a.reset()
	first := a.alloc(false)
	before := a.node(first)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				// Table load + slot deref exactly as a search worker would.
				_ = atomic.LoadInt32(&a.node(first).first)
			}
		}
	}()
	for i := 0; i < 4*arenaChunkSize; i++ {
		a.alloc(false)
	}
	close(stop)
	wg.Wait()
	if n := len(a.table.Load().nodes); n < 4 {
		t.Fatalf("arena holds %d chunks after %d allocs, want at least 4", n, 4*arenaChunkSize+1)
	}
	if a.node(first) != before {
		t.Error("slot moved across growth; outstanding *anode pointers would dangle")
	}
}

// TestSteadyStateSearchAllocFreeTranspositions extends the warm-search
// zero-allocation gate to transposition mode: table flush, stats-block
// handout and hash lookups must all run on recycled storage.
func TestSteadyStateSearchAllocFreeTranspositions(t *testing.T) {
	g, capacity := smallRandomDAG(19, 20)
	s := New(Config{InitialBudget: 50, MinBudget: 10, Seed: 5, UseTranspositions: true})
	// Warm every buffer — chunk storage, per-slot buffers and the hash map.
	if _, err := s.Schedule(g, cluster.Single(capacity)); err != nil {
		t.Fatal(err)
	}
	tw := s.workers[0]
	sw := tw.sims[0]
	env, err := simenv.New(g, capacity, simenv.Config{Mode: simenv.NextCompletion})
	if err != nil {
		t.Fatal(err)
	}
	sw.rng = rand.New(rand.NewSource(7))
	avg := testing.AllocsPerRun(20, func() {
		sw.rng.Seed(7)
		tw.arena.reset()
		tw.tt.reset(ttEntriesPerBudget * s.cfg.InitialBudget)
		tw.root = tw.newNode(env, nilNode, 0)
		if err := sw.searchSerial(context.Background(), 40, 1, 100); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("warm transposition search allocated %.1f times per run, want 0", avg)
	}
}

// TestTranspositionTableBounded pins the capacity mechanism: a budget small
// enough that an episode outgrows ttEntriesPerBudget × InitialBudget entries
// forces flush evictions that reach Stats and the metric counter, the live
// map never exceeds the bound, and the search stays correct because flushed
// entries only cost extra misses.
func TestTranspositionTableBounded(t *testing.T) {
	g, capacity := smallRandomDAG(8, 100)
	s := New(Config{InitialBudget: 1, Seed: 2, UseTranspositions: true})
	const ttCap = ttEntriesPerBudget * 1
	out, err := s.Schedule(g, cluster.Single(capacity))
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, cluster.Single(capacity), out); err != nil {
		t.Fatal(err)
	}
	st := s.LastStats()
	if st.TTEvictions == 0 {
		t.Errorf("capacity %d over a 100-task search evicted nothing", ttCap)
	}
	if st.TTMisses == 0 {
		t.Error("no TT misses recorded")
	}
	if n := len(s.workers[0].tt.m); n > ttCap {
		t.Errorf("table holds %d entries, capacity is %d", n, ttCap)
	}
	if got := s.sm.TTEvictions.Load(); got != st.TTEvictions {
		t.Errorf("spear_mcts_tt_evictions_total = %d, want %d (Stats.TTEvictions)", got, st.TTEvictions)
	}
}

// TestTranspositionCapacityDefault pins the sizing rule: the table's bound
// derives from the iteration budget, roomy enough that a search at an
// ordinary budget evicts nothing.
func TestTranspositionCapacityDefault(t *testing.T) {
	g, capacity := smallRandomDAG(8, 25)
	s := New(Config{InitialBudget: 100, MinBudget: 30, Seed: 2, UseTranspositions: true})
	if _, err := s.Schedule(g, cluster.Single(capacity)); err != nil {
		t.Fatal(err)
	}
	if got := s.workers[0].tt.cap; got != 64*100 {
		t.Errorf("table capacity = %d, want %d (64 x InitialBudget)", got, 64*100)
	}
	if ev := s.LastStats().TTEvictions; ev != 0 {
		t.Errorf("a %d-entry table evicted %d entries on a 25-task search, want 0", 64*100, ev)
	}
}
