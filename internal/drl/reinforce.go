package drl

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"spear/internal/dag"
	"spear/internal/nn"
	"spear/internal/obs"
	"spear/internal/resource"
	"spear/internal/simenv"
)

// TrainConfig parameterizes REINFORCE training (§IV): for every example in
// a mini-batch the agent simulates Rollouts episodes, averages them into a
// per-step baseline, and updates the policy with RMSProp. Rollouts run in
// parallel across Workers, mirroring the paper's multiprocessing setup.
type TrainConfig struct {
	// Epochs is the number of passes over the example set. The paper
	// trains for 7000; the experiment harness scales this down by default.
	Epochs int
	// Rollouts per example used to estimate the baseline. Paper: 20.
	Rollouts int
	// BatchExamples is how many examples share one gradient update.
	// Default 4.
	BatchExamples int
	// Workers bounds rollout/backprop parallelism. Default GOMAXPROCS.
	Workers int
	// Opt is the optimizer; zero value means nn.DefaultRMSProp.
	Opt nn.RMSProp
	// Mode is the environment's process semantics. Default OneSlot, whose
	// -1-per-slot reward makes the episode return the negative makespan.
	Mode simenv.ProcessMode
	// EntropyBonus adds β·H(π(·|s)) to the objective, discouraging
	// premature policy collapse — a standard REINFORCE regularizer.
	// Zero (the paper's setting) disables it.
	EntropyBonus float64
	// CheckpointEvery, when positive, invokes Checkpoint after every that
	// many epochs (and after the final epoch).
	CheckpointEvery int
	// Checkpoint receives the epoch index and the live network. A non-nil
	// error aborts training. The network must not be mutated.
	Checkpoint func(epoch int, net *nn.Network) error
	// Metrics, when non-nil, instruments the training loop: trajectory and
	// step counters, per-phase wall-clock (sample/backprop/apply), applied
	// gradient norms and rollout-baseline spreads. Nil disables all
	// instrumentation at zero cost.
	Metrics *obs.TrainMetrics
}

func (c TrainConfig) normalized() TrainConfig {
	if c.Epochs <= 0 {
		c.Epochs = 100
	}
	if c.Rollouts <= 0 {
		c.Rollouts = 20
	}
	if c.BatchExamples <= 0 {
		c.BatchExamples = 4
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Opt == (nn.RMSProp{}) {
		c.Opt = nn.DefaultRMSProp()
	}
	if c.Mode == 0 {
		c.Mode = simenv.OneSlot
	}
	return c
}

// EpochStats is one point of the learning curve (Fig. 8b): the mean
// makespan over every rollout of every example in the epoch.
type EpochStats struct {
	Epoch        int
	MeanMakespan float64
	MinMakespan  int64
	MaxMakespan  int64
}

// step is one decision inside a trajectory.
type step struct {
	x      []float64
	mask   []bool
	action int
	now    int64
}

// trajectory is one sampled episode.
type trajectory struct {
	steps    []step
	makespan int64
}

// Train runs REINFORCE over the example jobs and returns the learning
// curve. The progress callback (may be nil) fires after every epoch.
// time.Now feeds the phase timers (sample/backprop/apply) only; no
// training decision depends on the clock.
//
//spear:timing
func Train(net *nn.Network, feat Features, jobs []*dag.Graph, capacity resource.Vector, cfg TrainConfig, rng *rand.Rand, progress func(EpochStats)) ([]EpochStats, error) {
	cfg = cfg.normalized()
	if net == nil {
		return nil, errNilNetwork
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("drl: no training jobs")
	}
	agent, err := NewAgent(net, feat, false)
	if err != nil {
		return nil, err
	}

	// One gradient buffer for the whole run: Apply hands it back zeroed. One
	// samplerContext per sampling worker for the whole run too, so what their
	// policy memos hold is dated by the network's generation, not by the job.
	grads := net.NewGrads()
	samplers := make([]*samplerContext, min(cfg.Workers, cfg.Rollouts))
	for w := range samplers {
		samplers[w] = &samplerContext{agent: agent.newContext(1)}
	}
	curve := make([]EpochStats, 0, cfg.Epochs)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		stats := EpochStats{Epoch: epoch, MinMakespan: -1}
		var totalMakespan float64
		var rolloutCount int

		for start := 0; start < len(jobs); start += cfg.BatchExamples {
			end := start + cfg.BatchExamples
			if end > len(jobs) {
				end = len(jobs)
			}
			for _, g := range jobs[start:end] {
				sampleStart := time.Now()
				trajs, err := sampleTrajectories(agent, samplers, g, capacity, cfg, rng)
				if err != nil {
					return nil, err
				}
				var exMin, exMax int64 = -1, 0
				var exSteps int64
				for _, tr := range trajs {
					totalMakespan += float64(tr.makespan)
					rolloutCount++
					exSteps += int64(len(tr.steps))
					if exMin < 0 || tr.makespan < exMin {
						exMin = tr.makespan
					}
					if tr.makespan > exMax {
						exMax = tr.makespan
					}
					if stats.MinMakespan < 0 || tr.makespan < stats.MinMakespan {
						stats.MinMakespan = tr.makespan
					}
					if tr.makespan > stats.MaxMakespan {
						stats.MaxMakespan = tr.makespan
					}
				}
				if m := cfg.Metrics; m != nil {
					m.SampleTime.ObserveSince(sampleStart)
					m.Trajectories.Add(int64(len(trajs)))
					m.Steps.Add(exSteps)
					if exMin >= 0 {
						m.BaselineSpreadSum.Add(float64(exMax - exMin))
						m.BaselineSpreadCount.Inc()
					}
				}
				backpropStart := time.Now()
				if err := accumulatePolicyGradient(net, trajs, grads, cfg.Workers, cfg.EntropyBonus); err != nil {
					return nil, err
				}
				if m := cfg.Metrics; m != nil {
					m.BackpropTime.ObserveSince(backpropStart)
				}
			}
			if grads.Samples() > 0 {
				applyStart := time.Now()
				if m := cfg.Metrics; m != nil {
					// Norm walks every weight, so compute it only when asked.
					m.GradNormSum.Add(grads.Norm())
				}
				if err := net.Apply(grads, cfg.Opt); err != nil {
					return nil, err
				}
				if m := cfg.Metrics; m != nil {
					m.ApplyTime.ObserveSince(applyStart)
					m.GradUpdates.Inc()
				}
			}
		}

		stats.MeanMakespan = totalMakespan / float64(rolloutCount)
		curve = append(curve, stats)
		if progress != nil {
			progress(stats)
		}
		if cfg.Checkpoint != nil && cfg.CheckpointEvery > 0 &&
			((epoch+1)%cfg.CheckpointEvery == 0 || epoch == cfg.Epochs-1) {
			if err := cfg.Checkpoint(epoch, net); err != nil {
				return curve, fmt.Errorf("drl: checkpoint at epoch %d: %w", epoch, err)
			}
		}
	}
	return curve, nil
}

// WriteCurveCSV writes a learning curve as CSV with a header row, suitable
// for plotting Fig. 8(b).
func WriteCurveCSV(w io.Writer, curve []EpochStats) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"epoch", "meanMakespan", "minMakespan", "maxMakespan"}); err != nil {
		return err
	}
	for _, pt := range curve {
		rec := []string{
			strconv.Itoa(pt.Epoch),
			strconv.FormatFloat(pt.MeanMakespan, 'f', 3, 64),
			strconv.FormatInt(pt.MinMakespan, 10),
			strconv.FormatInt(pt.MaxMakespan, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// samplerContext bundles the reusable per-worker buffers of trajectory
// sampling: the agent's inference context, the legal-action buffer and a
// scratch episode recycled across rollouts. One per sampling worker, owned by
// the Train call and reused for every job; the Agent itself is shared and
// stateless.
type samplerContext struct {
	agent *AgentContext
	legal []simenv.Action
	env   *simenv.Env
}

// sampleTrajectories runs cfg.Rollouts sampled episodes of the agent on one
// job, spread over one goroutine per samplerContext. Per-rollout seeds are
// drawn from rng up front and applied by index, so results are identical
// regardless of worker interleaving.
func sampleTrajectories(agent *Agent, samplers []*samplerContext, g *dag.Graph, capacity resource.Vector, cfg TrainConfig, rng *rand.Rand) ([]trajectory, error) {
	base, err := simenv.New(g, capacity, simenv.Config{Window: agent.Features().Window, Mode: cfg.Mode})
	if err != nil {
		return nil, err
	}
	trajs := make([]trajectory, cfg.Rollouts)
	errs := make([]error, cfg.Rollouts)
	seeds := make([]int64, cfg.Rollouts)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}

	var wg sync.WaitGroup
	next := make(chan int)
	for _, sc := range samplers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				trajs[i], errs[i] = sampleOne(agent, sc, base, rand.New(rand.NewSource(seeds[i])))
			}
		}()
	}
	for i := 0; i < cfg.Rollouts; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return trajs, nil
}

// sampleOne plays a single episode with the sampling agent, recording every
// decision. The episode runs in sc's scratch Env (cloned from base) and the
// state is encoded once per step into sc's buffers, then snapshotted into
// the trajectory — the snapshot is the only per-step allocation left.
func sampleOne(agent *Agent, sc *samplerContext, base *simenv.Env, rng *rand.Rand) (trajectory, error) {
	feat := agent.Features()
	e := base.CloneInto(sc.env)
	sc.env = e
	var tr trajectory
	for !e.Done() {
		sc.legal = e.LegalActionsInto(sc.legal[:0])
		if len(sc.legal) == 0 {
			return trajectory{}, fmt.Errorf("drl: stuck episode")
		}
		probs, err := agent.probsCtx(sc.agent, e, sc.legal)
		if err != nil {
			return trajectory{}, err
		}
		a, err := agent.selectAction(probs, rng)
		if err != nil {
			return trajectory{}, err
		}
		tr.steps = append(tr.steps, step{
			x:      append([]float64(nil), sc.agent.x...),
			mask:   append([]bool(nil), sc.agent.masks...),
			action: feat.IndexFor(a),
			now:    e.Now(),
		})
		if err := e.Step(a); err != nil {
			return trajectory{}, err
		}
	}
	tr.makespan = e.Makespan()
	return tr, nil
}

// accumulatePolicyGradient turns the rollouts of one example into REINFORCE
// gradients with the averaged-trajectory baseline: the return-to-go of step
// t is G_t = now_t - makespan (each remaining time slot costs -1), and the
// baseline b_t averages G_t across the example's rollouts (§IV, following
// the per-timestep baseline of DeepRM). An optional entropy bonus is mixed
// into the logit gradients. Backprop over trajectories runs in parallel
// with per-worker gradient buffers.
func accumulatePolicyGradient(net *nn.Network, trajs []trajectory, grads *nn.Grads, workers int, entropyBonus float64) error {
	// Per-step baseline across trajectories.
	maxLen := 0
	for _, tr := range trajs {
		if len(tr.steps) > maxLen {
			maxLen = len(tr.steps)
		}
	}
	baseline := make([]float64, maxLen)
	counts := make([]int, maxLen)
	for _, tr := range trajs {
		for t := range tr.steps {
			baseline[t] += float64(tr.steps[t].now - tr.makespan)
			counts[t]++
		}
	}
	for t := range baseline {
		if counts[t] > 0 {
			baseline[t] /= float64(counts[t])
		}
	}

	// One gradient buffer per trajectory, merged in trajectory order below:
	// the result is bit-identical regardless of worker count or scheduling
	// interleave. The expensive per-pass buffers (activations, deltas) live
	// in one trainContext per worker and are reused across trajectories.
	if workers > len(trajs) {
		workers = len(trajs)
	}
	if workers < 1 {
		workers = 1
	}
	local := make([]*nn.Grads, len(trajs))
	errs := make([]error, len(trajs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc := newTrainContext(net, reinforceBatchRows)
			for i := range next {
				local[i] = net.NewGrads()
				errs[i] = backpropTrajectory(net, trajs[i], baseline, local[i], tc, entropyBonus)
			}
		}()
	}
	for i := range trajs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, lg := range local {
		grads.Add(lg)
	}
	return nil
}

// reinforceBatchRows is how many trajectory steps share one batched
// forward/backward network pass during gradient accumulation.
const reinforceBatchRows = 16

// trainContext holds one backprop worker's reusable buffers: the network
// scratch (which carries the activations) plus the row-major chunk of encoded
// states, masks, logit gradients and per-row bookkeeping. Pretrain sizes one
// for its minibatch, REINFORCE one per worker for reinforceBatchRows.
type trainContext struct {
	scratch *nn.Scratch
	bx      []float64
	bmask   []bool
	bd      []float64
	adv     []float64
	act     []int
}

// newTrainContext allocates a backprop context for passes of up to rows rows.
func newTrainContext(net *nn.Network, rows int) *trainContext {
	in, out := net.InputSize(), net.OutputSize()
	return &trainContext{
		scratch: net.NewScratch(),
		bx:      make([]float64, rows*in),
		bmask:   make([]bool, rows*out),
		bd:      make([]float64, rows*out),
		adv:     make([]float64, rows),
		act:     make([]int, rows),
	}
}

// backpropTrajectory accumulates (probs - onehot) * advantage plus the
// entropy-bonus term for every step of one trajectory. The gradient of
// -β·H with respect to logit i under a (masked) softmax is
// β·p_i·(log p_i + H). Steps are processed in chunks of reinforceBatchRows
// through the batched network kernels; because those accumulate per-weight
// contributions in ascending row (= step) order, the resulting gradients are
// bit-identical to one sequential backward pass per step.
func backpropTrajectory(net *nn.Network, tr trajectory, baseline []float64, grads *nn.Grads, tc *trainContext, entropyBonus float64) error {
	in, out := net.InputSize(), net.OutputSize()
	t := 0
	for t < len(tr.steps) {
		// Gather the next chunk of steps that actually carry gradient.
		rows := 0
		for t < len(tr.steps) && rows < reinforceBatchRows {
			st := tr.steps[t]
			advantage := float64(st.now-tr.makespan) - baseline[t]
			t++
			// Exact-zero tests: only a bit-exact zero contributes nothing to
			// the backward pass, and the skip must not change gradients.
			if advantage == 0 && entropyBonus == 0 { //spear:floateq
				// Zero-gradient step: the backward pass would add nothing, but
				// the step is still a sample of the batch. Count it so that
				// Apply's 1/n scaling averages over the true batch size instead
				// of silently inflating the effective learning rate.
				grads.AddSamples(1)
				continue
			}
			copy(tc.bx[rows*in:(rows+1)*in], st.x)
			copy(tc.bmask[rows*out:(rows+1)*out], st.mask)
			tc.adv[rows] = advantage
			tc.act[rows] = st.action
			rows++
		}
		if rows == 0 {
			continue
		}
		probs, err := net.ProbsBatchInto(tc.scratch, tc.bx[:rows*in], rows, tc.bmask[:rows*out])
		if err != nil {
			return err
		}
		for r := 0; r < rows; r++ {
			pr := probs[r*out : (r+1)*out]
			d := tc.bd[r*out : (r+1)*out]
			advantage := tc.adv[r]
			for i, p := range pr {
				d[i] = p * advantage
			}
			d[tc.act[r]] -= advantage
			if entropyBonus > 0 {
				var entropy float64
				for _, p := range pr {
					if p > 0 {
						entropy -= p * math.Log(p)
					}
				}
				for i, p := range pr {
					if p > 0 {
						d[i] += entropyBonus * p * (math.Log(p) + entropy)
					}
				}
			}
		}
		if err := net.BackwardBatchInto(tc.scratch, tc.bd[:rows*out], rows, grads); err != nil {
			return err
		}
	}
	return nil
}
