package drl

import (
	"math/rand"
	"testing"

	"spear/internal/nn"
	"spear/internal/simenv"
)

// TestChooseCtxMatchesChoose pins the fast path to the reference path: for
// the same state and rng, ChooseCtx must pick exactly the action Choose
// picks, in both greedy and sampling mode.
func TestChooseCtxMatchesChoose(t *testing.T) {
	feat := testFeatures()
	jobs, capacity := testJobs(t, 1, 12, 51)
	for _, greedy := range []bool{false, true} {
		agent := testAgent(t, feat, greedy, 52)
		ctx := agent.NewContext()
		e, err := simenv.New(jobs[0], capacity, simenv.Config{Window: feat.Window})
		if err != nil {
			t.Fatal(err)
		}
		rngA := rand.New(rand.NewSource(7))
		rngB := rand.New(rand.NewSource(7))
		for !e.Done() {
			legal := e.LegalActions()
			want, err := agent.Choose(e, legal, rngA)
			if err != nil {
				t.Fatal(err)
			}
			got, err := agent.ChooseCtx(ctx, e, legal, rngB)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("greedy=%v: ChooseCtx %v, Choose %v", greedy, got, want)
			}
			if err := e.Step(want); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestChooseCtxRejectsForeignContext(t *testing.T) {
	feat := testFeatures()
	agent := testAgent(t, feat, true, 53)
	jobs, capacity := testJobs(t, 1, 8, 54)
	e, err := simenv.New(jobs[0], capacity, simenv.Config{Window: feat.Window})
	if err != nil {
		t.Fatal(err)
	}
	type notAContext struct{}
	if _, err := agent.ChooseCtx(notAContext{}, e, e.LegalActions(), nil); err == nil {
		t.Error("foreign policy context accepted")
	}
}

// TestChooseCtxZeroAllocs gates the tentpole end to end: one warm per-step
// decision — Encode, forward pass, masked softmax, action selection — must
// perform zero heap allocations.
func TestChooseCtxZeroAllocs(t *testing.T) {
	feat := testFeatures()
	agent := testAgent(t, feat, true, 55)
	jobs, capacity := testJobs(t, 1, 12, 56)
	e, err := simenv.New(jobs[0], capacity, simenv.Config{Window: feat.Window})
	if err != nil {
		t.Fatal(err)
	}
	ctx := agent.NewContext()
	legal := e.LegalActions()
	if _, err := agent.ChooseCtx(ctx, e, legal, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := agent.ChooseCtx(ctx, e, legal, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm ChooseCtx allocates %.1f times per run, want 0", allocs)
	}
}

// TestRolloutContextUsesAgentFastPath runs the full rollout fast path with a
// DRL agent and checks it against the allocating reference rollout.
func TestRolloutContextUsesAgentFastPath(t *testing.T) {
	feat := testFeatures()
	agent := testAgent(t, feat, false, 57)
	jobs, capacity := testJobs(t, 1, 12, 58)
	base, err := simenv.New(jobs[0], capacity, simenv.Config{Window: feat.Window})
	if err != nil {
		t.Fatal(err)
	}
	rc := simenv.NewRolloutContext(agent)
	for seed := int64(0); seed < 4; seed++ {
		want, err := simenv.NewRolloutContext(agent).Rollout(base.Clone(), rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := rc.RolloutFrom(base, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("seed %d: fast-path makespan %d, reference %d", seed, got, want)
		}
	}
}

// TestZeroAdvantageStepsCountAsSamples is the regression test for the
// effective-learning-rate bug: steps whose advantage is exactly zero
// contribute no gradient but are still samples of the batch,
// so Grads.Samples must count them — otherwise Apply's 1/n scaling divides
// by too few samples and silently inflates the step size.
func TestZeroAdvantageStepsCountAsSamples(t *testing.T) {
	feat := testFeatures()
	net, err := DefaultNetwork(feat, rand.New(rand.NewSource(61)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	rc := newRecorder(net)
	mkStep := func(now int64) step {
		x := make([]float64, feat.InputSize())
		for i := range x {
			x[i] = rng.Float64()
		}
		mask := make([]bool, feat.OutputSize())
		for i := range mask {
			mask[i] = true
		}
		return rc.step(t, x, mask, 0, now)
	}
	tr := trajectory{steps: []step{mkStep(3), mkStep(5), mkStep(7)}, makespan: 10, records: rc.slab}
	// Baseline matches steps 0 and 2 exactly (advantage 0) but not step 1.
	baseline := []float64{
		float64(tr.steps[0].now - tr.makespan),
		float64(tr.steps[1].now-tr.makespan) + 1,
		float64(tr.steps[2].now - tr.makespan),
	}
	grads := net.NewGrads()
	tape := net.NewTape()
	if err := backpropTrajectory(net, tr, baseline, tape); err != nil {
		t.Fatal(err)
	}
	sumTapes(net, grads, []*nn.Tape{tape}, []*nn.Scratch{net.NewScratch()})
	if got := grads.Samples(); got != len(tr.steps) {
		t.Errorf("Samples = %d, want %d (zero-advantage steps must count)", got, len(tr.steps))
	}
}
