package drl

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"spear/internal/baselines"
	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/nn"
	"spear/internal/resource"
	"spear/internal/sched"
	"spear/internal/simenv"
	"spear/internal/workload"
)

func testFeatures() Features { return Features{Window: 5, Horizon: 10, Dims: 2} }

func testJobs(t testing.TB, n, tasks int, seed int64) ([]*dag.Graph, resource.Vector) {
	t.Helper()
	cfg := workload.DefaultRandomDAGConfig()
	cfg.NumTasks = tasks
	r := rand.New(rand.NewSource(seed))
	jobs, err := workload.RandomBatch(r, cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	return jobs, cfg.Capacity()
}

func testAgent(t *testing.T, feat Features, greedy bool, seed int64) *Agent {
	t.Helper()
	net, err := DefaultNetwork(feat, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent(net, feat, greedy)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestFeatureSizes(t *testing.T) {
	f := DefaultFeatures()
	if f.Window != 15 || f.Horizon != 20 || f.Dims != 2 {
		t.Errorf("DefaultFeatures = %+v", f)
	}
	// 2*20 image + 15*(3+4) per-task + 2 scalars = 147.
	if got := f.InputSize(); got != 147 {
		t.Errorf("InputSize = %d, want 147", got)
	}
	if got := f.OutputSize(); got != 16 {
		t.Errorf("OutputSize = %d, want 16", got)
	}
	if f.ProcessIndex() != 15 {
		t.Errorf("ProcessIndex = %d", f.ProcessIndex())
	}
	if err := (Features{}).Validate(); err == nil {
		t.Error("zero Features validated")
	}
}

func TestEncodeRangesAndReuse(t *testing.T) {
	feat := testFeatures()
	jobs, capacity := testJobs(t, 1, 12, 3)
	e, err := simenv.New(jobs[0], capacity, simenv.Config{Window: feat.Window, Mode: simenv.OneSlot})
	if err != nil {
		t.Fatal(err)
	}
	x := feat.Encode(e, nil)
	if len(x) != feat.InputSize() {
		t.Fatalf("len = %d, want %d", len(x), feat.InputSize())
	}
	for i, v := range x {
		if math.IsNaN(v) || v < 0 || v > 2 {
			t.Errorf("feature %d = %v out of sane range", i, v)
		}
	}
	// Buffer reuse returns the same slice, fully rewritten.
	if err := e.Step(e.LegalActions()[0]); err != nil {
		t.Fatal(err)
	}
	x2 := feat.Encode(e, x)
	if &x2[0] != &x[0] {
		t.Error("Encode did not reuse the buffer")
	}
}

func TestDisableGraphFeaturesZeroesThem(t *testing.T) {
	feat := testFeatures()
	ablated := feat
	ablated.DisableGraphFeatures = true
	if ablated.InputSize() != feat.InputSize() {
		t.Fatalf("ablation changed input size: %d vs %d", ablated.InputSize(), feat.InputSize())
	}

	jobs, capacity := testJobs(t, 1, 12, 21)
	e, err := simenv.New(jobs[0], capacity, simenv.Config{Window: feat.Window, Mode: simenv.OneSlot})
	if err != nil {
		t.Fatal(err)
	}
	full := feat.Encode(e, nil)
	cut := ablated.Encode(e, nil)

	imageLen := feat.Dims * feat.Horizon
	per := 3 + 2*feat.Dims
	sawGraphSignal := false
	for slot := 0; slot < feat.Window; slot++ {
		base := imageLen + slot*per
		// b-level, child count and b-load positions must be zero when
		// ablated; runtime and demand positions must match the full
		// encoding.
		for _, off := range []int{1, 2, 3 + feat.Dims, 3 + feat.Dims + 1} {
			if cut[base+off] != 0 {
				t.Errorf("slot %d offset %d = %v, want 0", slot, off, cut[base+off])
			}
			if full[base+off] != 0 {
				sawGraphSignal = true
			}
		}
		if cut[base] != full[base] {
			t.Errorf("slot %d runtime feature changed: %v vs %v", slot, cut[base], full[base])
		}
	}
	if !sawGraphSignal {
		t.Error("full encoding carried no graph features; test is vacuous")
	}
}

func TestMaskMatchesLegalActions(t *testing.T) {
	feat := testFeatures()
	jobs, capacity := testJobs(t, 1, 12, 4)
	e, err := simenv.New(jobs[0], capacity, simenv.Config{Window: feat.Window, Mode: simenv.OneSlot})
	if err != nil {
		t.Fatal(err)
	}
	legal := e.LegalActions()
	mask := feat.Mask(legal, nil)
	if len(mask) != feat.OutputSize() {
		t.Fatalf("mask len = %d", len(mask))
	}
	count := 0
	for _, b := range mask {
		if b {
			count++
		}
	}
	if count != len(legal) {
		t.Errorf("mask allows %d actions, legal = %d", count, len(legal))
	}
	// Round trip: every legal action maps to an unmasked index and back.
	for _, a := range legal {
		idx := feat.IndexFor(a)
		if !mask[idx] {
			t.Errorf("legal action %d masked", a)
		}
		if feat.ActionFor(idx) != a {
			t.Errorf("round trip failed for action %d", a)
		}
	}
}

func TestAgentValidation(t *testing.T) {
	feat := testFeatures()
	if _, err := NewAgent(nil, feat, false); err == nil {
		t.Error("nil network accepted")
	}
	wrongNet, err := nn.New([]int{3, 4}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAgent(wrongNet, feat, false); err == nil {
		t.Error("mismatched network accepted")
	}
}

func TestAgentProducesValidSchedules(t *testing.T) {
	feat := testFeatures()
	jobs, capacity := testJobs(t, 2, 15, 5)
	for _, greedy := range []bool{false, true} {
		agent := testAgent(t, feat, greedy, 1)
		for ji, g := range jobs {
			e, err := simenv.New(g, capacity, simenv.Config{Window: feat.Window, Mode: simenv.NextCompletion})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := simenv.NewRolloutContext(agent).Rollout(e, rand.New(rand.NewSource(9))); err != nil {
				t.Fatalf("greedy=%v job %d: %v", greedy, ji, err)
			}
			s, err := e.Schedule(agent.Name())
			if err != nil {
				t.Fatal(err)
			}
			if err := sched.Validate(g, cluster.Single(capacity), s); err != nil {
				t.Errorf("greedy=%v job %d: %v", greedy, ji, err)
			}
		}
	}
}

func TestSamplingAgentNeedsRNG(t *testing.T) {
	feat := testFeatures()
	agent := testAgent(t, feat, false, 2)
	jobs, capacity := testJobs(t, 1, 10, 6)
	e, err := simenv.New(jobs[0], capacity, simenv.Config{Window: feat.Window})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Choose(e, e.LegalActions(), nil); err == nil {
		t.Error("sampling without rng accepted")
	}
}

func TestGreedyAgentDeterministic(t *testing.T) {
	feat := testFeatures()
	agent := testAgent(t, feat, true, 3)
	jobs, capacity := testJobs(t, 1, 12, 7)
	e, err := simenv.New(jobs[0], capacity, simenv.Config{Window: feat.Window})
	if err != nil {
		t.Fatal(err)
	}
	legal := e.LegalActions()
	a1, err := agent.Choose(e, legal, nil)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := agent.Choose(e, legal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Errorf("greedy agent not deterministic: %d vs %d", a1, a2)
	}
}

func TestSampleIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	probs := []float64{0, 0.5, 0, 0.5, 0}
	counts := map[int]int{}
	for i := 0; i < 1000; i++ {
		counts[sampleIndex(probs, rng)]++
	}
	if counts[0] != 0 || counts[2] != 0 || counts[4] != 0 {
		t.Errorf("sampled zero-probability index: %v", counts)
	}
	if counts[1] < 400 || counts[3] < 400 {
		t.Errorf("sampling badly skewed: %v", counts)
	}
}

func TestExpanderPicksHighestProbability(t *testing.T) {
	feat := testFeatures()
	agent := testAgent(t, feat, false, 4)
	jobs, capacity := testJobs(t, 1, 12, 8)
	e, err := simenv.New(jobs[0], capacity, simenv.Config{Window: feat.Window})
	if err != nil {
		t.Fatal(err)
	}
	legal := e.LegalActions()
	if len(legal) < 2 {
		t.Skip("need at least two legal actions")
	}
	exp := NewExpander(agent)
	idx, err := exp.Next(e, legal, nil)
	if err != nil {
		t.Fatal(err)
	}
	probs, err := agent.probsCtx(agent.newContext(), e, legal)
	if err != nil {
		t.Fatal(err)
	}
	chosen := probs[feat.IndexFor(legal[idx])]
	for _, a := range legal {
		if probs[feat.IndexFor(a)] > chosen+1e-12 {
			t.Errorf("expander chose prob %g, but action %d has %g", chosen, a, probs[feat.IndexFor(a)])
		}
	}
}

func TestPretrainImitatesTeacher(t *testing.T) {
	feat := testFeatures()
	jobs, capacity := testJobs(t, 3, 10, 10)
	net, err := DefaultNetwork(feat, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	losses, err := Pretrain(net, feat, jobs, capacity, PretrainConfig{
		Epochs: 30,
		Opt:    nn.RMSProp{LR: 1e-3, Rho: 0.9, Eps: 1e-8},
	}, rng)
	if err != nil {
		t.Fatalf("Pretrain: %v", err)
	}
	if len(losses) != 30 {
		t.Fatalf("losses len = %d", len(losses))
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Errorf("supervised loss did not decrease: %g -> %g", losses[0], losses[len(losses)-1])
	}
}

func TestPretrainValidation(t *testing.T) {
	feat := testFeatures()
	jobs, capacity := testJobs(t, 1, 8, 11)
	rng := rand.New(rand.NewSource(1))
	if _, err := Pretrain(nil, feat, jobs, capacity, PretrainConfig{}, rng); err == nil {
		t.Error("nil net accepted")
	}
	net, err := DefaultNetwork(feat, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Pretrain(net, feat, nil, capacity, PretrainConfig{}, rng); err == nil {
		t.Error("no jobs accepted")
	}
}

func TestReinforceImprovesMakespan(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	feat := testFeatures()
	jobs, capacity := testJobs(t, 4, 10, 12)
	net, err := DefaultNetwork(feat, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))

	// Warm start, then RL with a raised learning rate to make progress
	// observable in a fast test.
	if _, err := Pretrain(net, feat, jobs, capacity, PretrainConfig{Epochs: 8, Opt: nn.RMSProp{LR: 1e-3, Rho: 0.9, Eps: 1e-8}}, rng); err != nil {
		t.Fatal(err)
	}
	curve, err := Train(net, feat, jobs, capacity, TrainConfig{
		Epochs:   12,
		Rollouts: 8,
		Opt:      nn.RMSProp{LR: 5e-4, Rho: 0.9, Eps: 1e-8},
	}, rng, nil)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if len(curve) != 12 {
		t.Fatalf("curve len = %d", len(curve))
	}
	first := averageOf(curve[:3])
	last := averageOf(curve[len(curve)-3:])
	if last > first {
		t.Errorf("mean makespan rose during training: %.1f -> %.1f", first, last)
	}
	for _, pt := range curve {
		if pt.MinMakespan <= 0 || pt.MaxMakespan < pt.MinMakespan {
			t.Errorf("bad stats: %+v", pt)
		}
	}
}

func averageOf(pts []EpochStats) float64 {
	var s float64
	for _, p := range pts {
		s += p.MeanMakespan
	}
	return s / float64(len(pts))
}

func TestTrainValidation(t *testing.T) {
	feat := testFeatures()
	jobs, capacity := testJobs(t, 1, 8, 13)
	rng := rand.New(rand.NewSource(1))
	if _, err := Train(nil, feat, jobs, capacity, TrainConfig{Epochs: 1}, rng, nil); err == nil {
		t.Error("nil net accepted")
	}
	net, err := DefaultNetwork(feat, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(net, feat, nil, capacity, TrainConfig{Epochs: 1}, rng, nil); err == nil {
		t.Error("no jobs accepted")
	}
}

func TestTrainCheckpoints(t *testing.T) {
	feat := testFeatures()
	jobs, capacity := testJobs(t, 1, 8, 30)
	net, err := DefaultNetwork(feat, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	var epochs []int
	_, err = Train(net, feat, jobs, capacity, TrainConfig{
		Epochs: 5, Rollouts: 2, CheckpointEvery: 2,
		Checkpoint: func(epoch int, n *nn.Network) error {
			if n != net {
				t.Error("checkpoint received a different network")
			}
			epochs = append(epochs, epoch)
			return nil
		},
	}, rand.New(rand.NewSource(3)), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every 2 epochs plus the final epoch: 1, 3, 4.
	want := []int{1, 3, 4}
	if len(epochs) != len(want) {
		t.Fatalf("checkpoints at %v, want %v", epochs, want)
	}
	for i := range want {
		if epochs[i] != want[i] {
			t.Errorf("checkpoints at %v, want %v", epochs, want)
			break
		}
	}

	// A failing checkpoint aborts training.
	boom := errors.New("disk full")
	_, err = Train(net, feat, jobs, capacity, TrainConfig{
		Epochs: 3, Rollouts: 2, CheckpointEvery: 1,
		Checkpoint: func(int, *nn.Network) error { return boom },
	}, rand.New(rand.NewSource(4)), nil)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped checkpoint error", err)
	}
}

func TestWriteCurveCSV(t *testing.T) {
	curve := []EpochStats{
		{Epoch: 0, MeanMakespan: 100.5, MinMakespan: 90, MaxMakespan: 120},
		{Epoch: 1, MeanMakespan: 95.25, MinMakespan: 85, MaxMakespan: 110},
	}
	var buf bytes.Buffer
	if err := WriteCurveCSV(&buf, curve); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d: %q", len(lines), buf.String())
	}
	if lines[0] != "epoch,meanMakespan,minMakespan,maxMakespan" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,100.500,90,120") {
		t.Errorf("row = %q", lines[1])
	}
}

func TestTrainProgressCallback(t *testing.T) {
	feat := testFeatures()
	jobs, capacity := testJobs(t, 1, 8, 14)
	net, err := DefaultNetwork(feat, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	_, err = Train(net, feat, jobs, capacity, TrainConfig{Epochs: 3, Rollouts: 2}, rand.New(rand.NewSource(3)), func(s EpochStats) {
		if s.Epoch != calls {
			t.Errorf("epoch %d out of order", s.Epoch)
		}
		calls++
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("progress called %d times, want 3", calls)
	}
}

func TestPretrainedAgentBeatsUntrainedOnTeacherMetric(t *testing.T) {
	// After imitation, the greedy agent should schedule closer to CP than a
	// fresh random-weight agent does on average.
	feat := testFeatures()
	jobs, capacity := testJobs(t, 3, 12, 15)
	rng := rand.New(rand.NewSource(16))

	trained, err := DefaultNetwork(feat, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Pretrain(trained, feat, jobs, capacity, PretrainConfig{Epochs: 40, Opt: nn.RMSProp{LR: 2e-3, Rho: 0.9, Eps: 1e-8}}, rng); err != nil {
		t.Fatal(err)
	}
	trainedAgent, err := NewAgent(trained, feat, true)
	if err != nil {
		t.Fatal(err)
	}

	agreement := func(a *Agent) float64 {
		match, total := 0, 0
		for _, g := range jobs {
			e, err := simenv.New(g, capacity, simenv.Config{Window: feat.Window, Mode: simenv.OneSlot})
			if err != nil {
				t.Fatal(err)
			}
			for !e.Done() {
				legal := e.LegalActions()
				want, err := baselines.CP{}.Choose(e, legal, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := a.Choose(e, legal, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got == want {
					match++
				}
				total++
				if err := e.Step(want); err != nil {
					t.Fatal(err)
				}
			}
		}
		return float64(match) / float64(total)
	}

	fresh := testAgent(t, feat, true, 99)
	if at, af := agreement(trainedAgent), agreement(fresh); at <= af {
		t.Errorf("imitation agreement %.2f not better than untrained %.2f", at, af)
	}
}
