package drl_test

import (
	"math/rand"
	"reflect"
	"testing"

	"spear/internal/cluster"
	"spear/internal/core"
	"spear/internal/drl"
	"spear/internal/mcts"
	"spear/internal/sched"
	"spear/internal/workload"
)

// TestSpearSearchIsTheSameWithAndWithoutMemo is the end-to-end form of the
// memo's exactness: the Spear that core.New builds must commit the same
// decisions — compared through every task's placement, which the committed
// action sequence determines — reach the same makespan and do the same
// amount of search whether its contexts memoise at the real cap, thrash a
// one-set memo, or run every forward pass.
func TestSpearSearchIsTheSameWithAndWithoutMemo(t *testing.T) {
	feat := drl.Features{Window: 5, Horizon: 10, Dims: 2}
	net, err := drl.DefaultNetwork(feat, rand.New(rand.NewSource(91)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultRandomDAGConfig()
	cfg.NumTasks = 30
	jobs, err := workload.RandomBatch(rand.New(rand.NewSource(92)), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	spec := cluster.Single(cfg.Capacity())

	type result struct {
		plans []*sched.Schedule
		stats []mcts.Stats
	}
	run := func(maxSets int) result {
		defer drl.SetMemoMaxSets(maxSets)()
		s, err := core.New(net, feat, core.Config{InitialBudget: 40, MinBudget: 15, Seed: 93})
		if err != nil {
			t.Fatal(err)
		}
		var r result
		var calls, hits int64
		for i, g := range jobs {
			plan, err := s.Schedule(g, spec)
			if err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
			st := s.LastStats()
			st.Elapsed, st.SimsPerSec = 0, 0
			r.plans = append(r.plans, plan)
			r.stats = append(r.stats, st)
			calls += st.PolicyCalls
			hits += st.PolicyCacheHits
		}
		// The registry accumulates what each call's Stats reported.
		snap := s.Metrics()
		for name, want := range map[string]int64{
			"spear_search_policy_calls_total":      calls,
			"spear_search_policy_cache_hits_total": hits,
		} {
			if got, ok := snap.Value(name); !ok || int64(got) != want {
				t.Errorf("maxSets=%d: %s = %v (present %v), want %d", maxSets, name, got, ok, want)
			}
		}
		return r
	}

	bypassed := run(0)
	for _, maxSets := range []int{1, 4096} {
		memoised := run(maxSets)
		for i := range jobs {
			if !reflect.DeepEqual(memoised.plans[i], bypassed.plans[i]) {
				t.Errorf("maxSets=%d job %d: schedules differ: makespan %d with the memo, %d without",
					maxSets, i, memoised.plans[i].Makespan, bypassed.plans[i].Makespan)
			}
			with, without := memoised.stats[i], bypassed.stats[i]
			if with.PolicyCacheHits == 0 || with.PolicyCacheHits >= with.PolicyCalls {
				t.Errorf("maxSets=%d job %d: %d memo hits in %d policy calls", maxSets, i, with.PolicyCacheHits, with.PolicyCalls)
			}
			if without.PolicyCacheHits != 0 || without.PolicyCalls == 0 {
				t.Errorf("job %d without the memo: %d hits in %d policy calls", i, without.PolicyCacheHits, without.PolicyCalls)
			}
			// Everything but the hit count must agree, policy calls included.
			with.PolicyCacheHits = 0
			if with != without {
				t.Errorf("maxSets=%d job %d: search did different work:\nwith    %+v\nwithout %+v", maxSets, i, with, without)
			}
		}
	}
}
