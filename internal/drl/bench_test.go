package drl

import (
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

// BenchmarkAgentChooseCtx measures one warm decision on each side of the
// policy memo: hit re-evaluates one state, which the context remembers; miss
// rotates over more distinct states than its (shrunken) memo holds, so every
// decision encodes, misses, runs the network and evicts.
func BenchmarkAgentChooseCtx(b *testing.B) {
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
	for _, bc := range []struct {
		name   string
		ctx    *AgentContext
		states []visit
	}{
		{"hit", agent.newContext(), states[:1]},
		{"miss", contextWithMemo(agent, 4), states},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for _, v := range bc.states { // warm: the memo reaches its size
				if _, err := agent.ChooseCtx(bc.ctx, v.env, v.legal, rng); err != nil {
					b.Fatal(err)
				}
			}
			hits := bc.ctx.hits
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := bc.states[i%len(bc.states)]
				if _, err := agent.ChooseCtx(bc.ctx, v.env, v.legal, rng); err != nil {
					b.Fatal(err)
				}
			}
			want := int64(0)
			if bc.name == "hit" {
				want = int64(b.N)
			}
			if got := bc.ctx.hits - hits; got != want {
				b.Fatalf("%d memo hits in %d decisions, want %d", got, b.N, want)
			}
		})
	}
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
