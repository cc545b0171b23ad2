package mcts

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"spear/internal/baselines"
	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/drl"
	"spear/internal/obs"
	"spear/internal/resource"
	"spear/internal/sched"
	"spear/internal/simenv"
)

// placementHash fingerprints a schedule slot by slot: any reordered,
// shifted or re-placed task changes the hash.
func placementHash(out *sched.Schedule) uint64 {
	h := fnv.New64a()
	for _, p := range out.Placements {
		fmt.Fprintf(h, "%d:%d:%d;", p.Task, p.Start, p.Machine)
	}
	return h.Sum64()
}

// smallFeat is the five-task window the DRL golden rows were captured with.
var smallFeat = drl.Features{Window: 5, Horizon: 10, Dims: 2}

// untrainedAgent is a DRL agent over a freshly initialised network (weights
// seeded with 1). Two calls with the same features build equal networks.
func untrainedAgent(tb testing.TB, feat drl.Features, greedy bool) *drl.Agent {
	tb.Helper()
	net, err := drl.DefaultNetwork(feat, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	agent, err := drl.NewAgent(net, feat, greedy)
	if err != nil {
		tb.Fatal(err)
	}
	return agent
}

// TestLegacyGoldenBitIdentity pins the arena/shared-tree rewrite to the
// pre-rewrite pointer-tree search: the golden rows below were captured by
// running the legacy implementation (per-node heap allocation, float64
// statistics, recursive child slices) over every search feature — budget
// decay on/off, CP rollouts, windows, several rollouts
// per expansion, multi-machine clusters, root parallelism and the DRL-guided
// policies. With TreeParallelism = 1 the rewrite must reproduce every
// makespan, every counter and every placement slot bit for bit. The tt-17
// row pins the transposition table (its hits, misses and capacity flushes
// too); it was captured from the incrementally maintained state hash, so it
// also pins the hash computed on demand to the same bits.
func TestLegacyGoldenBitIdentity(t *testing.T) {
	cases := []struct {
		name       string
		makespan   int64
		iterations int
		expansions int
		rollouts   int64
		hash       uint64
		graphSeed  int64
		tasks      int
		machines   int // 0 = Single
		mk         func(t *testing.T) *Scheduler
	}{
		{"basic-13", 237, 366, 358, 356, 0x36ed025e42a086bc, 13, 25, 0, func(t *testing.T) *Scheduler {
			return New(Config{InitialBudget: 60, MinBudget: 12, Seed: 13})
		}},
		{"basic-42", 226, 522, 495, 491, 0x8c68048b51c7ed6c, 42, 30, 0, func(t *testing.T) *Scheduler {
			return New(Config{InitialBudget: 80, MinBudget: 16, Seed: 42})
		}},
		{"nodecay-9", 181, 720, 614, 608, 0xc14db61b5f7674ce, 9, 20, 0, func(t *testing.T) *Scheduler {
			return New(Config{InitialBudget: 40, MinBudget: 10, Seed: 9, DisableBudgetDecay: true})
		}},
		{"cp-rollout-4", 203, 131, 131, 131, 0x1506ec713a518d0a, 4, 25, 0, func(t *testing.T) *Scheduler {
			return New(Config{InitialBudget: 30, MinBudget: 5, Seed: 4, Rollout: baselines.CP{}})
		}},
		{"window-5", 192, 402, 393, 391, 0x9ee4335f1d332678, 5, 30, 0, func(t *testing.T) *Scheduler {
			return New(Config{InitialBudget: 60, MinBudget: 12, Seed: 5, Window: smallFeat.Window})
		}},
		{"leafpar-6", 178, 229, 225, 896, 0x2f712ecd0a03386d, 6, 25, 0, func(t *testing.T) *Scheduler {
			return New(Config{InitialBudget: 30, MinBudget: 8, Seed: 6, RolloutsPerExpansion: 4})
		}},
		{"multi-4m-11", 82, 337, 335, 331, 0x5e73e8a0e3a5e97f, 11, 25, 4, func(t *testing.T) *Scheduler {
			return New(Config{InitialBudget: 50, MinBudget: 10, Seed: 11})
		}},
		{"rootpar-k2", 213, 336, 332, 330, 0x638bbd301ad86bc0, 21, 25, 0, func(t *testing.T) *Scheduler {
			return New(Config{InitialBudget: 60, MinBudget: 12, Seed: 21, RootParallelism: 2})
		}},
		{"rootpar-k4", 215, 344, 344, 344, 0x14020546f2f64555, 21, 25, 0, func(t *testing.T) *Scheduler {
			return New(Config{InitialBudget: 60, MinBudget: 12, Seed: 21, RootParallelism: 4})
		}},
		{"drl-guided", 214, 184, 183, 181, 0x34a4e16d751d8f41, 21, 25, 0, func(t *testing.T) *Scheduler {
			return NewNamed("Spear", Config{InitialBudget: 30, MinBudget: 6, Seed: 21,
				Rollout: untrainedAgent(t, smallFeat, false), Expand: drl.NewExpander(untrainedAgent(t, smallFeat, true)), Window: smallFeat.Window})
		}},
		{"drl-rollouts-k3", 217, 136, 136, 405, 0x86fffddf022acc4, 21, 25, 0, func(t *testing.T) *Scheduler {
			return NewNamed("MCTS+DRL rollouts", Config{InitialBudget: 20, MinBudget: 5, Seed: 22,
				Rollout: untrainedAgent(t, smallFeat, false), Window: smallFeat.Window, RolloutsPerExpansion: 3})
		}},
		{"tt-17", 670, 680, 676, 674, 0xb4df74f973528394, 17, 80, 0, func(t *testing.T) *Scheduler {
			return New(Config{InitialBudget: 8, MinBudget: 8, Seed: 17, DisableBudgetDecay: true, UseTranspositions: true})
		}},
	}
	// Transposition-table counters (hits, misses, entries flushed) of the
	// rows that search with one; every other row must leave them at zero.
	ttGolden := map[string][3]int64{"tt-17": {44, 633, 512}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, capacity := smallRandomDAG(tc.graphSeed, tc.tasks)
			spec := cluster.Single(capacity)
			if tc.machines > 0 {
				spec = cluster.Uniform(tc.machines, capacity)
			}
			s := tc.mk(t)
			out, err := s.Schedule(g, spec)
			if err != nil {
				t.Fatal(err)
			}
			st := s.LastStats()
			if out.Makespan != tc.makespan {
				t.Errorf("makespan %d, legacy %d", out.Makespan, tc.makespan)
			}
			if st.Iterations != tc.iterations || st.Expansions != tc.expansions || st.Rollouts != tc.rollouts {
				t.Errorf("counters (%d it, %d exp, %d roll), legacy (%d, %d, %d)",
					st.Iterations, st.Expansions, st.Rollouts, tc.iterations, tc.expansions, tc.rollouts)
			}
			if got := placementHash(out); got != tc.hash {
				t.Errorf("placement hash %#x, legacy %#x — the schedule diverged slot-wise", got, tc.hash)
			}
			if got, want := [3]int64{st.TTHits, st.TTMisses, st.TTEvictions}, ttGolden[tc.name]; got != want {
				t.Errorf("TT (hits, misses, evicted) %v, golden %v", got, want)
			}
			if st.VirtualLossApplied != 0 {
				t.Errorf("serial search touched parallel-only machinery: %+v", st)
			}
		})
	}
}

// TestTreeParallelRaceHammer drives the shared tree hard under the race
// detector: J=4 workers per tree, transpositions on, two rollouts per expansion,
// several Schedule calls on one scheduler (arena reuse), and the K×J
// composition. Run with -race; correctness here is "no race, valid
// schedule, consistent counters".
func TestTreeParallelRaceHammer(t *testing.T) {
	g, capacity := smallRandomDAG(33, 30)
	reg := obs.NewRegistry()
	s := New(Config{
		InitialBudget: 120, MinBudget: 24, Seed: 9,
		TreeParallelism: 4, UseTranspositions: true,
		RolloutsPerExpansion: 2,
		Obs:                  reg,
	})
	for call := 0; call < 3; call++ {
		out, err := s.Schedule(g, cluster.Single(capacity))
		if err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
		if err := sched.Validate(g, cluster.Single(capacity), out); err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
		st := s.LastStats()
		if st.TreeWorkers != 4 {
			t.Fatalf("call %d: TreeWorkers = %d, want 4", call, st.TreeWorkers)
		}
		if st.Iterations == 0 || st.Expansions == 0 || st.Rollouts == 0 {
			t.Fatalf("call %d: empty stats %+v", call, st)
		}
		if st.VirtualLossApplied == 0 {
			t.Errorf("call %d: J=4 applied no virtual losses", call)
		}
		if st.TTMisses == 0 {
			t.Errorf("call %d: transpositions on but no TT misses recorded", call)
		}
	}
	// And the K×J composition.
	kj := New(Config{
		InitialBudget: 80, MinBudget: 16, Seed: 10,
		RootParallelism: 2, TreeParallelism: 2,
	})
	out, err := kj.Schedule(g, cluster.Single(capacity))
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, cluster.Single(capacity), out); err != nil {
		t.Fatal(err)
	}
	st := kj.LastStats()
	if st.RootWorkers != 2 || st.TreeWorkers != 2 {
		t.Errorf("K×J stats = %d×%d, want 2×2", st.RootWorkers, st.TreeWorkers)
	}
}

// TestTreeParallelBudgetConserved checks the shared-budget ticket counter:
// J workers on one tree spend exactly the per-decision budget, same as the
// serial search — no lost or duplicated iterations. Budget decay is off so
// every searched decision owes exactly InitialBudget iterations even though
// the J=4 trajectory (and so the decision count) may differ from serial.
func TestTreeParallelBudgetConserved(t *testing.T) {
	const budget = 48
	g, capacity := smallRandomDAG(19, 20)
	serial := New(Config{InitialBudget: budget, DisableBudgetDecay: true, Seed: 5})
	if _, err := serial.Schedule(g, cluster.Single(capacity)); err != nil {
		t.Fatal(err)
	}
	shared := New(Config{InitialBudget: budget, DisableBudgetDecay: true, Seed: 5, TreeParallelism: 4})
	if _, err := shared.Schedule(g, cluster.Single(capacity)); err != nil {
		t.Fatal(err)
	}
	ss, ps := serial.LastStats(), shared.LastStats()
	sd, pd := ss.Decisions-ss.ForcedMoves, ps.Decisions-ps.ForcedMoves
	if sd == 0 || pd == 0 {
		t.Fatalf("no searched decisions: serial %d, shared %d", sd, pd)
	}
	if ss.Iterations != sd*budget {
		t.Errorf("serial spend %d over %d decisions, want exactly %d", ss.Iterations, sd, sd*budget)
	}
	if ps.Iterations != pd*budget {
		t.Errorf("shared spend %d over %d decisions, want exactly %d", ps.Iterations, pd, pd*budget)
	}
}

// TestVirtualLossAllReverted checks the invariant that makes virtual loss
// safe: after every search phase joins, each applied mark has been reverted
// on backup, so the statistics the committed move is chosen from are the
// true visit counts. The final tree is inspected block by block.
func TestVirtualLossAllReverted(t *testing.T) {
	g, capacity := smallRandomDAG(23, 25)
	s := New(Config{InitialBudget: 100, MinBudget: 20, Seed: 3, TreeParallelism: 4})
	if _, err := s.Schedule(g, cluster.Single(capacity)); err != nil {
		t.Fatal(err)
	}
	if s.LastStats().VirtualLossApplied == 0 {
		t.Fatal("hammer applied no virtual losses; the check below would be vacuous")
	}
	ar := &s.workers[0].arena
	for i := int32(0); i < ar.nlen; i++ {
		if st := ar.nstats(i); st.vloss != 0 {
			t.Errorf("stats block %d left with %d unreverted virtual losses", i, st.vloss)
		}
	}
}

// TestTranspositionSharesStats pins the table's purpose: two different
// schedule orders that reach the same environment state must map to one
// shared statistics block, counted as a hit. Two independent tasks that fit
// the machine together give the minimal transposition: schedule t0-then-t1
// or t1-then-t0, same resulting state. (Actions index the visible ready
// window, so the second step's action is read off the child's own untried
// list rather than reused from the root.)
func TestTranspositionSharesStats(t *testing.T) {
	b := dag.NewBuilder(1)
	b.AddTask("t0", 2, resource.Of(1))
	b.AddTask("t1", 3, resource.Of(1))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{UseTranspositions: true})
	tw := s.worker(0)
	tw.arena.reset()
	tw.tt.reset(ttEntriesPerBudget * s.cfg.InitialBudget)
	tw.sims[0].rng = rand.New(rand.NewSource(1))

	env, err := simenv.New(g, resource.Of(2), simenv.Config{Mode: simenv.NextCompletion})
	if err != nil {
		t.Fatal(err)
	}
	root := tw.newNode(env, nilNode, 0)
	ar := &tw.arena
	rn := ar.node(root)
	if len(rn.untried) != 2 {
		t.Fatalf("root has %d untried actions, want both tasks schedulable", len(rn.untried))
	}
	a, b2 := rn.untried[0], rn.untried[1]

	// Path 1: t0 then t1.
	c1, err := tw.newChild(root, a)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := tw.newChild(c1, ar.node(c1).untried[0])
	if err != nil {
		t.Fatal(err)
	}
	// Path 2: t1 then t0.
	c3, err := tw.newChild(root, b2)
	if err != nil {
		t.Fatal(err)
	}
	c4, err := tw.newChild(c3, ar.node(c3).untried[0])
	if err != nil {
		t.Fatal(err)
	}
	if ar.node(c2).env.StateHash() != ar.node(c4).env.StateHash() {
		t.Fatalf("order a,b and b,a reached different state hashes %#x vs %#x",
			ar.node(c2).env.StateHash(), ar.node(c4).env.StateHash())
	}
	if ar.node(c2).stats != ar.node(c4).stats {
		t.Errorf("transposed states got distinct stats blocks %d and %d",
			ar.node(c2).stats, ar.node(c4).stats)
	}
	if ar.node(c1).stats == ar.node(c3).stats {
		t.Error("different states (a-running vs b-running) share a stats block")
	}
	if hits := tw.tt.hits; hits != 1 {
		t.Errorf("TT hits = %d, want exactly 1 (the transposed leaf)", hits)
	}
}

// TestTranspositionsEndToEnd runs a full search with the table on: the
// schedule must stay valid, and on dependency graphs with interchangeable
// siblings the table must actually fire.
func TestTranspositionsEndToEnd(t *testing.T) {
	g, capacity := smallRandomDAG(8, 25)
	s := New(Config{InitialBudget: 150, MinBudget: 30, Seed: 2, UseTranspositions: true})
	out, err := s.Schedule(g, cluster.Single(capacity))
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, cluster.Single(capacity), out); err != nil {
		t.Fatal(err)
	}
	st := s.LastStats()
	if st.TTMisses == 0 {
		t.Error("no TT misses: every node creation should consult the table")
	}
	if st.TTHits == 0 {
		t.Error("no TT hits across a whole search — transpositions never pooled")
	}
	if st.TTHits+st.TTMisses < int64(st.Expansions) {
		t.Errorf("TT lookups (%d) fewer than expansions (%d)", st.TTHits+st.TTMisses, st.Expansions)
	}
}

// TestSteadyStateSearchAllocFree is the arena's reason to exist: once the
// chunk storage and per-slot buffers are warm, a full search phase —
// selection, expansion (env clone + step), rollouts, backup — allocates
// nothing, with one rollout per expansion or four. A fresh Schedule call
// still allocates its base env and output; this gate isolates the
// per-decision search loop, which is where the old per-node heap allocation
// lived.
func TestSteadyStateSearchAllocFree(t *testing.T) {
	g, capacity := smallRandomDAG(19, 20)
	for _, k := range []int{1, 4} {
		s := New(Config{InitialBudget: 50, MinBudget: 10, Seed: 5, RolloutsPerExpansion: k})
		// Warm every buffer: one full schedule grows the arena past the node
		// count the measured phase needs.
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
			// Reseed in place so every run replays the warm-up run exactly —
			// a drifting rng explores different trees, whose nodes can need
			// bigger untried buffers than the slots hold.
			sw.rng.Seed(7)
			tw.arena.reset()
			tw.root = tw.newNode(env, nilNode, 0)
			tw.remaining = 40
			if err := sw.search(context.Background(), 1, 100); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("%d rollouts per expansion: warm search phase allocated %.1f times per run, want 0", k, avg)
		}
	}
}

// TestWarmScheduleCallAllocations bounds what a whole Schedule call costs on
// a warm serial scheduler beyond the search phases gated above: the base
// episode, the committed decisions' legal-action lists and the two schedules
// (Tetris estimate, result). The worker's generator is re-seeded in place
// (building one is a 607-word source per worker per call) and the Tetris
// scheduler behind the exploration constant is the scheduler's own: 62
// allocations on this job (68 under -race), 90 when both were rebuilt every
// call.
func TestWarmScheduleCallAllocations(t *testing.T) {
	g, capacity := smallRandomDAG(19, 20)
	s := New(Config{InitialBudget: 50, MinBudget: 10, Seed: 5})
	run := func() {
		if _, err := s.Schedule(g, cluster.Single(capacity)); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(10, run); avg > 70 {
		t.Errorf("warm Schedule call allocated %.0f times, want <= 70", avg)
	}
}
