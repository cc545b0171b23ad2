package drl

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"spear/internal/nn"
	"spear/internal/simenv"
)

// TestChooseBatchMatchesChooseCtx pins the batched inference path to the
// per-state fast path: for the same states and rngs, ChooseBatch must pick
// exactly what ChooseCtx picks row by row, in both sampling and greedy mode.
func TestChooseBatchMatchesChooseCtx(t *testing.T) {
	feat := testFeatures()
	jobs, capacity := testJobs(t, 3, 10, 71)
	for _, greedy := range []bool{false, true} {
		agent := testAgent(t, feat, greedy, 72)
		ctx := agent.NewContext()
		bctx := agent.NewBatchContext(len(jobs))
		envs := make([]*simenv.Env, len(jobs))
		for i, g := range jobs {
			e, err := simenv.New(g, capacity, simenv.Config{Window: feat.Window})
			if err != nil {
				t.Fatal(err)
			}
			envs[i] = e
		}
		legal := make([][]simenv.Action, len(envs))
		rngsA := make([]*rand.Rand, len(envs))
		rngsB := make([]*rand.Rand, len(envs))
		for i := range envs {
			rngsA[i] = rand.New(rand.NewSource(int64(100 + i)))
			rngsB[i] = rand.New(rand.NewSource(int64(100 + i)))
		}
		out := make([]simenv.Action, len(envs))
		for step := 0; step < 20; step++ {
			live := envs[:0:0]
			var liveLegal [][]simenv.Action
			var liveA, liveB []*rand.Rand
			for i, e := range envs {
				if e.Done() {
					continue
				}
				live = append(live, e)
				legal[i] = e.LegalActions()
				liveLegal = append(liveLegal, legal[i])
				liveA = append(liveA, rngsA[i])
				liveB = append(liveB, rngsB[i])
			}
			if len(live) == 0 {
				break
			}
			if err := agent.ChooseBatch(bctx, live, liveLegal, liveA, out[:len(live)]); err != nil {
				t.Fatal(err)
			}
			for i, e := range live {
				want, err := agent.ChooseCtx(ctx, e, liveLegal[i], liveB[i])
				if err != nil {
					t.Fatal(err)
				}
				if out[i] != want {
					t.Fatalf("greedy=%v step %d row %d: ChooseBatch %v, ChooseCtx %v",
						greedy, step, i, out[i], want)
				}
				if err := e.Step(out[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestChooseBatchRejectsForeignAndOversized checks a context from another
// policy is refused. A batch of any size runs on the one-row context, so
// there is no oversized batch left to refuse.
func TestChooseBatchRejectsForeignAndOversized(t *testing.T) {
	feat := testFeatures()
	agent := testAgent(t, feat, true, 73)
	jobs, capacity := testJobs(t, 1, 8, 74)
	e, err := simenv.New(jobs[0], capacity, simenv.Config{Window: feat.Window})
	if err != nil {
		t.Fatal(err)
	}
	envs := []*simenv.Env{e, e}
	legal := [][]simenv.Action{e.LegalActions(), e.LegalActions()}
	rngs := []*rand.Rand{nil, nil}
	out := make([]simenv.Action, 2)
	type notAContext struct{}
	if err := agent.ChooseBatch(notAContext{}, envs, legal, rngs, out); err == nil {
		t.Error("foreign batch context accepted")
	}
}

// recorder files evaluations the way a sampler's memo miss does, so tests can
// build trajectories over states of their own making.
type recorder struct {
	net     *nn.Network
	scratch *nn.Scratch
	slab    *recordSlab
}

func newRecorder(net *nn.Network) *recorder {
	return &recorder{
		net:     net,
		scratch: net.NewScratch(),
		slab:    &recordSlab{state: net.RowStateSize(), width: net.OutputSize()},
	}
}

// step evaluates (x, mask) under the recorder's network and returns a step
// naming the new record.
func (rc *recorder) step(t *testing.T, x []float64, mask []bool, action int, now int64) step {
	t.Helper()
	probs, err := rc.net.ProbsInto(rc.scratch, x, mask)
	if err != nil {
		t.Fatal(err)
	}
	return step{record: int32(rc.slab.save(rc.net, rc.scratch, probs)), action: int32(action), now: now}
}

// TestBackpropTrajectoryMatchesSequential pins the two-phase gradient path,
// whose tape reads the sampler's records back, to a step-by-step reference
// that forwards every state again: same trajectory, same baseline, bit-equal
// gradients. The inputs are sparse like encoded states (one row is all
// zeros), several steps share a record like memo hits do, more records than
// one slab chunk holds are filed first, one step gets a zero advantage to
// exercise the skip, and the second phase runs on two scratches.
func TestBackpropTrajectoryMatchesSequential(t *testing.T) {
	feat := testFeatures()
	net, err := DefaultNetwork(feat, rand.New(rand.NewSource(75)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(76))
	rc := newRecorder(net)
	mask := make([]bool, feat.OutputSize())
	for j := range mask {
		mask[j] = j%3 != 1
	}
	for i := 0; i < slabChunkRecords-3; i++ {
		rc.step(t, make([]float64, feat.InputSize()), mask, 0, 0)
	}
	steps := 21
	tr := trajectory{makespan: int64(steps) + 3, records: rc.slab}
	var xs [][]float64
	for i := 0; i < steps; i++ {
		if i%4 == 3 { // a memo hit: the step repeats an earlier evaluation
			prev := rng.Intn(i)
			xs = append(xs, xs[prev])
			tr.steps = append(tr.steps, step{record: tr.steps[prev].record, action: 3 * int32(rng.Intn(feat.OutputSize()/3)), now: int64(i)})
			continue
		}
		x := make([]float64, feat.InputSize())
		for j := range x {
			if i != 1 && rng.Intn(5) == 0 {
				x[j] = rng.Float64()
			}
		}
		xs = append(xs, x)
		tr.steps = append(tr.steps, rc.step(t, x, mask, 3*rng.Intn(feat.OutputSize()/3), int64(i)))
	}
	if len(rc.slab.chunks) < 2 {
		t.Fatalf("%d records fit %d chunk(s): the trajectory does not cross a chunk boundary", rc.slab.n, len(rc.slab.chunks))
	}
	baseline := make([]float64, steps)
	for i := range baseline {
		baseline[i] = float64(tr.steps[i].now-tr.makespan) + rng.NormFloat64()
	}
	baseline[4] = float64(tr.steps[4].now - tr.makespan) // advantage 0: skipped row

	// Sequential reference: one one-row forward and backward per step.
	want := net.NewGrads()
	scratch := net.NewScratch()
	d := make([]float64, net.OutputSize())
	for i, st := range tr.steps {
		advantage := float64(st.now-tr.makespan) - baseline[i]
		if advantage == 0 {
			want.AddSamples(1)
			continue
		}
		probs, err := net.ProbsInto(scratch, xs[i], mask)
		if err != nil {
			t.Fatal(err)
		}
		for j, p := range probs {
			d[j] = p * advantage
		}
		d[st.action] -= advantage
		if err := net.BackwardBatchInto(scratch, d, 1, want); err != nil {
			t.Fatal(err)
		}
	}

	got := net.NewGrads()
	tape := net.NewTape()
	if err := backpropTrajectory(net, tr, baseline, tape); err != nil {
		t.Fatal(err)
	}
	sumTapes(net, got, []*nn.Tape{tape}, []*nn.Scratch{net.NewScratch(), net.NewScratch()})
	if got.Samples() != want.Samples() {
		t.Fatalf("samples %d, want %d", got.Samples(), want.Samples())
	}
	// The grad buffers are opaque here; apply each to an identical clone
	// and compare the serialized results — bit-equal grads give bit-equal
	// networks.
	if bytes.Compare(applyAndSave(t, net, want), applyAndSave(t, net, got)) != 0 {
		t.Fatal("batched gradients differ from sequential")
	}
}

// applyAndSave clones net, applies g with a fixed optimizer and returns the
// serialized weights.
func applyAndSave(t *testing.T, net *nn.Network, g *nn.Grads) []byte {
	t.Helper()
	c := net.Clone()
	if err := c.Apply(g, nn.DefaultRMSProp()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzPolicyGradientEquivalence compares the two-phase policy gradient, bit
// for bit, with a reference that lives only here: one Grads per trajectory,
// filled step by step by a one-row forward and backward pass over the step's
// record, merged into the batch in trajectory order. The trajectories are
// random: their number, their lengths (0 to 39 steps), forced steps (record
// -1), steps that repeat an earlier record as memo hits do, and exact-zero
// advantages wherever a step's return equals its baseline (a step only one
// trajectory reaches always has one). The network has a random shape whose
// hidden widths need not be multiples of a block, and the trainer runs on 1
// to 3 workers. Two jobs go into one Grads, so the second adds to sums that
// are no longer zero.
func FuzzPolicyGradientEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(0))
	f.Add(int64(2), uint8(0), uint8(1))
	f.Add(int64(3), uint8(7), uint8(2))
	f.Add(int64(4), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, rollouts, workers uint8) {
		rng := rand.New(rand.NewSource(seed))
		feat := Features{Window: 2 + rng.Intn(6), Horizon: 5 + rng.Intn(20), Dims: 1 + rng.Intn(2)}
		net, err := nn.New([]int{feat.InputSize(), 20 + rng.Intn(300), 1 + rng.Intn(40), feat.OutputSize()}, rng)
		if err != nil {
			t.Fatal(err)
		}
		agent, err := NewAgent(net, feat, false)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTrainer(agent, TrainConfig{Rollouts: 1 + int(rollouts)%8, Workers: 1 + int(workers)%3}.normalized())
		rc := newRecorder(net)
		in, out := feat.InputSize(), feat.OutputSize()
		got := net.NewGrads()
		sizes := net.Sizes()
		wantW, wantB := make([][]float64, len(sizes)-1), make([][]float64, len(sizes)-1)
		for l := range wantW {
			wantW[l], wantB[l] = make([]float64, sizes[l]*sizes[l+1]), make([]float64, sizes[l+1])
		}
		wantSamples := 0
		scratch := net.NewScratch()
		d := make([]float64, out)
		for job := 0; job < 2; job++ {
			for i := range tr.trajs {
				tj := &tr.trajs[i]
				tj.steps, tj.records = tj.steps[:0], rc.slab
				for s, n := 0, rng.Intn(40); s < n; s++ {
					now := int64(s + rng.Intn(2))
					switch k := rng.Intn(6); {
					case k == 0: // forced: one legal action, nothing evaluated
						tj.steps = append(tj.steps, step{record: -1, action: int32(rng.Intn(out)), now: now})
					case k == 1 && s > 0: // a memo hit repeats an earlier evaluation
						prev := tj.steps[rng.Intn(s)]
						if prev.record < 0 {
							prev.record = int32(rc.slab.n - 1)
						}
						tj.steps = append(tj.steps, step{record: prev.record, action: int32(rng.Intn(out)), now: now})
					default:
						x := make([]float64, in)
						for j := range x {
							if k == 2 || rng.Intn(4) == 0 { // some rows dense, most sparse
								x[j] = rng.Float64()
							}
						}
						mask := make([]bool, out)
						for j := range mask {
							mask[j] = rng.Intn(3) != 0
						}
						action := rng.Intn(out)
						mask[action] = true
						tj.steps = append(tj.steps, rc.step(t, x, mask, action, now))
					}
				}
				tj.makespan = int64(len(tj.steps) + rng.Intn(3))
			}
			if err := tr.accumulatePolicyGradient(got); err != nil {
				t.Fatal(err)
			}

			// The reference: its own baseline, one Grads per trajectory.
			var baseline, reach []float64
			for _, tj := range tr.trajs {
				for s, st := range tj.steps {
					if s == len(baseline) {
						baseline, reach = append(baseline, 0), append(reach, 0)
					}
					baseline[s] += float64(st.now - tj.makespan)
					reach[s]++
				}
			}
			for s := range baseline {
				baseline[s] /= reach[s]
			}
			for _, tj := range tr.trajs {
				local := net.NewGrads()
				for s, st := range tj.steps {
					advantage := float64(st.now-tj.makespan) - baseline[s]
					if advantage == 0 || st.record < 0 {
						local.AddSamples(1)
						continue
					}
					rec := rc.slab.row(int(st.record))
					if _, err := net.ForwardBatchInto(scratch, rec[:in], 1); err != nil {
						t.Fatal(err)
					}
					for j, p := range rec[net.RowStateSize():] {
						d[j] = p * advantage
					}
					d[st.action] -= advantage
					if err := net.BackwardBatchInto(scratch, d, 1, local); err != nil {
						t.Fatal(err)
					}
				}
				for l := range wantW {
					w, b := local.Layer(l)
					for j, v := range w {
						wantW[l][j] += v
					}
					for j, v := range b {
						wantB[l][j] += v
					}
				}
				wantSamples += local.Samples()
			}
		}
		if got.Samples() != wantSamples {
			t.Fatalf("%d samples, want %d", got.Samples(), wantSamples)
		}
		for l := range wantW {
			w, b := got.Layer(l)
			for j := range w {
				if math.Float64bits(w[j]) != math.Float64bits(wantW[l][j]) {
					t.Fatalf("shape %v, %d workers: layer %d weight %d: %g, want %g", sizes, tr.cfg.Workers, l, j, w[j], wantW[l][j])
				}
			}
			for j := range b {
				if math.Float64bits(b[j]) != math.Float64bits(wantB[l][j]) {
					t.Fatalf("shape %v, %d workers: layer %d bias %d: %g, want %g", sizes, tr.cfg.Workers, l, j, b[j], wantB[l][j])
				}
			}
		}
	})
}
