package drl

import (
	"fmt"
	"math/rand"
	"testing"

	"spear/internal/simenv"
	"spear/internal/workload"
)

func benchEnv(b *testing.B, feat Features) *simenv.Env {
	b.Helper()
	cfg := workload.DefaultRandomDAGConfig()
	cfg.NumTasks = 50
	g, err := workload.RandomDAG(rand.New(rand.NewSource(1)), cfg)
	if err != nil {
		b.Fatal(err)
	}
	e, err := simenv.New(g, cfg.Capacity(), simenv.Config{Window: feat.Window, Mode: simenv.OneSlot})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func BenchmarkEncode(b *testing.B) {
	feat := DefaultFeatures()
	e := benchEnv(b, feat)
	buf := make([]float64, feat.InputSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = feat.Encode(e, buf)
	}
}

func BenchmarkAgentChoose(b *testing.B) {
	feat := DefaultFeatures()
	net, err := DefaultNetwork(feat, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	agent, err := NewAgent(net, feat, false)
	if err != nil {
		b.Fatal(err)
	}
	e := benchEnv(b, feat)
	legal := e.LegalActions()
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agent.Choose(e, legal, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProbsCtx measures one warm policy evaluation on each side of the
// policy memo. hit rotates over as many states of one episode as one set
// holds, which the context remembers and which stay in L1, so every call
// packs and finds its key; hit_full rotates over every state a memo at its
// cap holds (fullMemo), so that each hit also reaches a set out of cache;
// miss rotates over more distinct states than its (shrunken) memo holds, so
// every call packs, misses, encodes, runs the network and evicts. Compare
// two builds with a fixed count, e.g. -benchtime 20000x, so that both make
// the same calls.
func BenchmarkProbsCtx(b *testing.B) {
	feat := DefaultFeatures()
	net, err := DefaultNetwork(feat, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	agent, err := NewAgent(net, feat, false)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var states []visit
	for e := benchEnv(b, feat); !e.Done() && len(states) < 64; {
		legal := e.LegalActions()
		states = append(states, visit{env: e.Clone(), legal: legal})
		if err := e.Step(legal[rng.Intn(len(legal))]); err != nil {
			b.Fatal(err)
		}
	}
	full, held := fullMemo(b, agent)
	for _, bc := range []struct {
		name   string
		ctx    *AgentContext
		states []visit
	}{
		{"hit", contextWithMemo(agent, 1), states[:memoWays]},
		{"hit_full", full, held},
		{"miss", contextWithMemo(agent, 4), states},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ask := func(v visit) {
				if _, err := agent.probsCtx(bc.ctx, v.env, v.legal); err != nil {
					b.Fatal(err)
				}
			}
			for range 2 { // warm: the memo reaches its size
				for _, v := range bc.states {
					ask(v)
				}
			}
			hits := bc.ctx.hits
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ask(bc.states[i%len(bc.states)])
			}
			want := int64(b.N)
			if bc.name == "miss" {
				want = 0
			}
			if got := bc.ctx.hits - hits; got != want {
				b.Fatalf("%d memo hits in %d calls, want %d", got, b.N, want)
			}
		})
	}
}

// fullMemo plays random episodes of one 100-task job through a context at
// the real cap, asking at every step about random subsets of the legal
// actions as an expander asks about its untried ones, until the memo has
// grown to its cap and three quarters of its entries are taken. It returns
// the context and the visits whose answers the memo then holds.
func fullMemo(b *testing.B, agent *Agent) (*AgentContext, []visit) {
	b.Helper()
	feat := agent.Features()
	cfg := workload.DefaultRandomDAGConfig()
	g, err := workload.RandomDAG(rand.New(rand.NewSource(4)), cfg)
	if err != nil {
		b.Fatal(err)
	}
	base, err := simenv.New(g, cfg.Capacity(), simenv.Config{Window: feat.Window})
	if err != nil {
		b.Fatal(err)
	}
	ctx := contextWithMemo(agent, memoMaxSets)
	m := &ctx.memo
	rng := rand.New(rand.NewSource(5))
	var met []visit
	for m.sets < m.maxSets || 4*m.live < 3*m.sets*memoWays {
		for e := base.Clone(); !e.Done(); {
			legal := e.LegalActions()
			var snapshot *simenv.Env
			for range 16 {
				var offered []simenv.Action
				for i, pick := 0, rng.Uint64(); i < len(legal); i++ {
					if pick>>i&1 != 0 {
						offered = append(offered, legal[i])
					}
				}
				if len(offered) < 2 {
					continue
				}
				hits := ctx.hits
				if _, err := agent.probsCtx(ctx, e, offered); err != nil {
					b.Fatal(err)
				}
				if ctx.hits == hits {
					if snapshot == nil {
						snapshot = e.Clone()
					}
					met = append(met, visit{env: snapshot, legal: offered})
				}
			}
			if err := e.Step(legal[rng.Intn(len(legal))]); err != nil {
				b.Fatal(err)
			}
		}
	}
	var held []visit
	for _, v := range met {
		key := ctx.key[:m.keyLen]
		if _, ok := m.lookup(feat.packState(v.env, v.legal, key, m.lane), key, ctx.probs); ok {
			held = append(held, v)
		}
	}
	return ctx, held
}

// BenchmarkTrainEpoch measures one REINFORCE epoch at the shape the repo's
// benchmark trains at: 16 jobs of 25 tasks, 20 rollouts, batches of 4, two
// workers, the paper's network.
func BenchmarkTrainEpoch(b *testing.B) {
	feat := DefaultFeatures()
	net, err := DefaultNetwork(feat, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	jobs, capacity := testJobs(b, 16, 25, 3)
	cfg := TrainConfig{Epochs: 1, Rollouts: 20, BatchExamples: 4, Workers: 2}
	rng := rand.New(rand.NewSource(4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(net, feat, jobs, capacity, cfg, rng, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccumulatePolicyGradient measures the backward pass of one job:
// the policy gradient of 20 sampled rollouts of a 25-task job through the
// paper's network, at one and two workers. Sampling runs once, outside the
// timer; the gradient keeps accumulating into one Grads, as within a batch.
func BenchmarkAccumulatePolicyGradient(b *testing.B) {
	feat := DefaultFeatures()
	net, err := DefaultNetwork(feat, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	agent, err := NewAgent(net, feat, false)
	if err != nil {
		b.Fatal(err)
	}
	jobs, capacity := testJobs(b, 1, 25, 3)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			tr := newTrainer(agent, TrainConfig{Rollouts: 20, Workers: workers}.normalized())
			if err := tr.sampleTrajectories(jobs[0], capacity, rand.New(rand.NewSource(4))); err != nil {
				b.Fatal(err)
			}
			grads := net.NewGrads()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tr.accumulatePolicyGradient(grads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
