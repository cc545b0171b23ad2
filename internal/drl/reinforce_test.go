package drl

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"spear/internal/dag"
	"spear/internal/nn"
	"spear/internal/obs"
	"spear/internal/resource"
	"spear/internal/simenv"
)

// TestTrainIsTheSameAcrossWorkersAndMemoStates pins what may not depend on
// who sampled a trajectory or on what its sampler's memo still held: steps
// point into sampler-owned records, a memo hit at the record of the evaluation
// it repeats, and the trained network must come out byte for byte the same
// with one, two or three workers, with the memo at its cap, squeezed into one
// set (hits only while nothing has evicted the entry) or bypassed (every step
// a miss with a record of its own).
func TestTrainIsTheSameAcrossWorkersAndMemoStates(t *testing.T) {
	feat := testFeatures()
	jobs, capacity := testJobs(t, 3, 14, 81)
	start, err := DefaultNetwork(feat, rand.New(rand.NewSource(82)))
	if err != nil {
		t.Fatal(err)
	}
	train := func(workers, maxSets int) ([]byte, obs.TrainStats) {
		defer SetMemoMaxSets(maxSets)()
		net := start.Clone()
		tm := obs.NewTrainMetrics(nil)
		cfg := TrainConfig{Epochs: 2, Rollouts: 7, BatchExamples: 2, Workers: workers, Metrics: tm}
		if _, err := Train(net, feat, jobs, capacity, cfg, rand.New(rand.NewSource(83)), nil); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := net.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), tm.Stats()
	}
	want, _ := train(1, memoMaxSets)
	forced := forcedSteps(t, start.Clone(), feat, jobs, capacity, want)
	for _, workers := range []int{1, 2, 3} {
		for _, maxSets := range []int{memoMaxSets, 1, 0} {
			got, st := train(workers, maxSets)
			if !bytes.Equal(got, want) {
				t.Errorf("workers=%d memoMaxSets=%d: trained network differs from workers=1 at the cap", workers, maxSets)
			}
			if st.PolicyCalls != st.Steps-forced {
				t.Errorf("workers=%d memoMaxSets=%d: %d policy calls for %d steps, %d of them forced", workers, maxSets, st.PolicyCalls, st.Steps, forced)
			}
			if hits := st.PolicyCacheHits; (maxSets == 0) != (hits == 0) || hits >= st.PolicyCalls {
				t.Errorf("workers=%d memoMaxSets=%d: %d memo hits in %d calls", workers, maxSets, hits, st.PolicyCalls)
			}
		}
	}
}

// forcedSteps runs the training of TestTrainIsTheSameAcrossWorkersAndMemoStates
// with Train's loop written out, checks that it trains the network saved as
// want, and counts the steps it sampled from a state with exactly one legal
// action, by replaying every trajectory in an episode of its own.
func forcedSteps(t *testing.T, net *nn.Network, feat Features, jobs []*dag.Graph, capacity resource.Vector, want []byte) int64 {
	t.Helper()
	agent, err := NewAgent(net, feat, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrainConfig{Epochs: 2, Rollouts: 7, BatchExamples: 2, Workers: 1}.normalized()
	tr := newTrainer(agent, cfg)
	grads := net.NewGrads()
	rng := rand.New(rand.NewSource(83))
	var forced int64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for start := 0; start < len(jobs); start += cfg.BatchExamples {
			for _, g := range jobs[start:min(start+cfg.BatchExamples, len(jobs))] {
				if err := tr.sampleTrajectories(g, capacity, rng); err != nil {
					t.Fatal(err)
				}
				for _, tj := range tr.trajs {
					e, err := simenv.New(g, capacity, simenv.Config{Window: feat.Window, Mode: cfg.Mode})
					if err != nil {
						t.Fatal(err)
					}
					for _, st := range tj.steps {
						if len(e.LegalActions()) == 1 {
							forced++
						}
						if err := e.Step(feat.ActionFor(int(st.action))); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := tr.accumulatePolicyGradient(grads); err != nil {
					t.Fatal(err)
				}
			}
			if grads.Samples() > 0 {
				if err := net.Apply(grads, cfg.Opt); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("Train's loop written out trains a different network than Train")
	}
	if forced == 0 {
		t.Fatal("no forced step: the count checks nothing")
	}
	return forced
}

// TestWarmJobAllocatesPerRolloutNotPerStep gates the trainer's buffer
// ownership: once a job of the same size has been through, sampling a job,
// backpropagating it and applying the update allocates a few objects per
// worker and per job, never per step — no snapshot of the state, no gradient
// buffer, no record storage.
func TestWarmJobAllocatesPerRolloutNotPerStep(t *testing.T) {
	feat := DefaultFeatures()
	jobs, capacity := testJobs(t, 1, 25, 84)
	agent := testAgent(t, feat, false, 85)
	cfg := TrainConfig{Rollouts: 20, Workers: 2}.normalized()
	tr := newTrainer(agent, cfg)
	grads := agent.net.NewGrads()
	rng := rand.New(rand.NewSource(86))
	steps := 0
	job := func() {
		if err := tr.sampleTrajectories(jobs[0], capacity, rng); err != nil {
			t.Fatal(err)
		}
		steps = 0
		for _, tj := range tr.trajs {
			steps += len(tj.steps)
		}
		if err := tr.accumulatePolicyGradient(grads); err != nil {
			t.Fatal(err)
		}
		// The update dates the memos and the records, as in Train: the next
		// job starts from misses again.
		if err := agent.net.Apply(grads, nn.DefaultRMSProp()); err != nil {
			t.Fatal(err)
		}
	}
	job()
	job()
	allocs := testing.AllocsPerRun(5, job)
	t.Logf("%.0f allocations for a job of %d rollouts and %d steps", allocs, cfg.Rollouts, steps)
	if limit := float64(3 * cfg.Rollouts); allocs > limit || steps < 20*cfg.Rollouts {
		t.Errorf("a warm job of %d rollouts and %d steps allocates %.0f objects, want at most %.0f", cfg.Rollouts, steps, allocs, limit)
	}
}

// TestTrainerGradientMemoryDoesNotGrowWithRollouts gates what a trainer
// holds per rollout: a tape, which grows with the steps it carries, not with
// the network. So building a trainer for 40 rollouts may cost at most one
// dense gradient buffer (381 568 bytes at the paper's shape) more than
// building one for a single rollout, where a Grads per rollout cost 39.
func TestTrainerGradientMemoryDoesNotGrowWithRollouts(t *testing.T) {
	feat := DefaultFeatures()
	agent := testAgent(t, feat, false, 87)
	sizes := agent.net.Sizes()
	gradBytes := uint64(0)
	for l := range sizes[1:] {
		gradBytes += 8 * uint64((sizes[l]+1)*sizes[l+1])
	}
	var keep *trainer
	allocated := func(rollouts int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		keep = newTrainer(agent, TrainConfig{Rollouts: rollouts, Workers: 2}.normalized())
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	one, forty := allocated(1), allocated(40)
	t.Logf("newTrainer allocates %d bytes at 1 rollout, %d at 40; one Grads is %d", one, forty, gradBytes)
	if forty > one+gradBytes {
		t.Errorf("newTrainer allocates %d bytes more at 40 rollouts than at 1, want at most one Grads (%d)", forty-one, gradBytes)
	}
	if len(keep.trajs) != 40 {
		t.Fatalf("the trainer holds %d rollouts, want 40", len(keep.trajs))
	}
}
