package drl

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
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
	// trains for 7000 from scratch; the experiment suite trains 300 after a
	// supervised warm start that already starts near Tetris's makespans,
	// and the curve moves by under 3 % over those 300 (EXPERIMENTS.md,
	// Fig. 8(b)).
	Epochs int
	// Rollouts per example used to estimate the baseline. Paper: 20.
	Rollouts int
	// BatchExamples is how many examples share one gradient update.
	// Default 4.
	BatchExamples int
	// Workers bounds parallelism: sampling and the first backward phase run
	// on min(Workers, Rollouts) goroutines, one trajectory at a time; the
	// second phase on min(Workers, nn.Network.GradBlocks) goroutines, one
	// block of weights at a time. Default GOMAXPROCS.
	Workers int
	// Opt is the optimizer; zero value means nn.DefaultRMSProp.
	Opt nn.RMSProp
	// Mode is the environment's process semantics. Default OneSlot, whose
	// -1-per-slot reward makes the episode return the negative makespan.
	Mode simenv.ProcessMode
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

// validate rejects a negative count, which names no default: zero does.
func (c TrainConfig) validate() error {
	for _, f := range []struct {
		name  string
		value int
	}{
		{"Epochs", c.Epochs},
		{"Rollouts", c.Rollouts},
		{"BatchExamples", c.BatchExamples},
		{"Workers", c.Workers},
	} {
		if f.value < 0 {
			return fmt.Errorf("drl: negative %s %d (0 means the default)", f.name, f.value)
		}
	}
	return nil
}

func (c TrainConfig) normalized() TrainConfig {
	if c.Epochs == 0 {
		c.Epochs = 100
	}
	if c.Rollouts == 0 {
		c.Rollouts = 20
	}
	if c.BatchExamples == 0 {
		c.BatchExamples = 4
	}
	if c.Workers == 0 {
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

// step is one decision inside a trajectory: the action taken at time now on
// the distribution held in record, an id in the sampling worker's recordSlab,
// or -1 on a forced step, which evaluated nothing.
type step struct {
	record int32
	action int32
	now    int64
}

// trajectory is one sampled episode. records is the slab of the sampler that
// played it, which its steps index; it stays valid until the weights change.
type trajectory struct {
	steps    []step
	makespan int64
	records  *recordSlab
}

// Train runs REINFORCE over the example jobs and returns the learning
// curve. The progress callback (may be nil) fires after every epoch.
// time.Now feeds the phase timers (sample/backprop/apply) only; no
// training decision depends on the clock.
func Train(net *nn.Network, feat Features, jobs []*dag.Graph, capacity resource.Vector, cfg TrainConfig, rng *rand.Rand, progress func(EpochStats)) ([]EpochStats, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
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

	// One gradient buffer for the whole run: Apply hands it back zeroed. The
	// trainer's buffers last the whole run too.
	grads := net.NewGrads()
	tr := newTrainer(agent, cfg)
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
				if err := tr.sampleTrajectories(g, capacity, rng); err != nil {
					return nil, err
				}
				var exMin, exMax int64 = -1, 0
				var exSteps int64
				for _, t := range tr.trajs {
					totalMakespan += float64(t.makespan)
					rolloutCount++
					exSteps += int64(len(t.steps))
					if exMin < 0 || t.makespan < exMin {
						exMin = t.makespan
					}
					if t.makespan > exMax {
						exMax = t.makespan
					}
					if stats.MinMakespan < 0 || t.makespan < stats.MinMakespan {
						stats.MinMakespan = t.makespan
					}
					if t.makespan > stats.MaxMakespan {
						stats.MaxMakespan = t.makespan
					}
				}
				if m := cfg.Metrics; m != nil {
					m.SampleTime.ObserveSince(sampleStart)
					m.Trajectories.Add(int64(len(tr.trajs)))
					m.Steps.Add(exSteps)
					if exMin >= 0 {
						m.BaselineSpreadSum.Add(float64(exMax - exMin))
						m.BaselineSpreadCount.Inc()
					}
					tr.countPolicyCalls(m)
				}
				backpropStart := time.Now()
				if err := tr.accumulatePolicyGradient(grads); err != nil {
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
// sampling: the agent's recording inference context, the legal-action buffer,
// a scratch episode recycled across rollouts and the rng reseeded for each.
// The Agent itself is shared and stateless.
type samplerContext struct {
	agent *AgentContext
	legal []simenv.Action
	env   *simenv.Env
	rng   *rand.Rand
}

// trainer owns every buffer a Train call reuses from job to job, so that a
// warm job allocates a handful of objects per worker and rollout, not per
// step. It holds one job at a time: sampleTrajectories fills trajs,
// accumulatePolicyGradient consumes them.
type trainer struct {
	agent *Agent
	cfg   TrainConfig

	// One samplerContext per sampling worker. Living as long as the run, what
	// their record slabs hold is dated by the network's generation, not by
	// the job; their policy memos also empty on a change of job.
	samplers []*samplerContext
	// One scratch per worker of the second backward phase: the partial sums
	// of the block it is on.
	summers []*nn.Scratch

	// Per rollout: its seed, its trajectory and its tape (the storage of
	// both is recycled), and its error.
	seeds []int64
	trajs []trajectory
	tapes []*nn.Tape
	errs  []error

	// Per step index: the baseline and how many trajectories reach that far.
	baseline []float64
	counts   []int

	// counted is what countPolicyCalls has already reported.
	counted simenv.PolicyCounters
}

func newTrainer(agent *Agent, cfg TrainConfig) *trainer {
	tr := &trainer{
		agent:    agent,
		cfg:      cfg,
		samplers: make([]*samplerContext, min(cfg.Workers, cfg.Rollouts)),
		summers:  make([]*nn.Scratch, min(cfg.Workers, agent.net.GradBlocks())),
		seeds:    make([]int64, cfg.Rollouts),
		trajs:    make([]trajectory, cfg.Rollouts),
		tapes:    make([]*nn.Tape, cfg.Rollouts),
		errs:     make([]error, cfg.Rollouts),
	}
	for w := range tr.samplers {
		tr.samplers[w] = &samplerContext{agent: agent.newRecordingContext(), rng: rand.New(rand.NewSource(0))}
	}
	for w := range tr.summers {
		tr.summers[w] = agent.net.NewScratch()
	}
	for i := range tr.tapes {
		tr.tapes[i] = agent.net.NewTape()
	}
	return tr
}

// countPolicyCalls adds to m the evaluations the samplers were asked for, and
// those their memos answered, since it last ran.
func (tr *trainer) countPolicyCalls(m *obs.TrainMetrics) {
	var sum simenv.PolicyCounters
	for _, sc := range tr.samplers {
		c := sc.agent.PolicyCounters()
		sum.Calls += c.Calls
		sum.CacheHits += c.CacheHits
	}
	m.PolicyCalls.Add(sum.Calls - tr.counted.Calls)
	m.PolicyCacheHits.Add(sum.CacheHits - tr.counted.CacheHits)
	tr.counted = sum
}

// parallel runs do(w, i) once for every i in [0, n), on workers goroutines
// that take the next i as they finish one; w names the goroutine. One worker
// runs them in order on the calling goroutine.
func parallel(workers, n int, do func(w, i int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			do(0, i)
		}
		return
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				do(w, i)
			}
		}()
	}
	wg.Wait()
}

// forEachRollout runs do(w, i) for every rollout index i, on one goroutine per
// sampler w, and returns the first error in rollout order.
func (tr *trainer) forEachRollout(do func(w, i int) error) error {
	parallel(len(tr.samplers), len(tr.trajs), func(w, i int) { tr.errs[i] = do(w, i) })
	for _, err := range tr.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sampleTrajectories runs cfg.Rollouts sampled episodes of the agent on one
// job, spread over one goroutine per samplerContext. Per-rollout seeds are
// drawn from rng up front and applied by index, so results are identical
// regardless of worker interleaving.
func (tr *trainer) sampleTrajectories(g *dag.Graph, capacity resource.Vector, rng *rand.Rand) error {
	base, err := simenv.New(g, capacity, simenv.Config{Window: tr.agent.Features().Window, Mode: tr.cfg.Mode})
	if err != nil {
		return err
	}
	for i := range tr.seeds {
		tr.seeds[i] = rng.Int63()
	}
	return tr.forEachRollout(func(w, i int) error {
		sc := tr.samplers[w]
		sc.rng.Seed(tr.seeds[i])
		return sampleOne(tr.agent, sc, base, &tr.trajs[i])
	})
}

// sampleOne plays a single episode with the sampling agent into tr, recording
// every decision. The episode runs in sc's scratch Env (cloned from base); a
// step names the record of its evaluation in sc's slab, so nothing is
// snapshotted per step. A forced step is evaluated by nobody and names
// record -1.
func sampleOne(agent *Agent, sc *samplerContext, base *simenv.Env, tr *trajectory) error {
	feat := agent.Features()
	e := base.CloneInto(sc.env)
	sc.env = e
	tr.steps, tr.records = tr.steps[:0], sc.agent.records
	for !e.Done() {
		sc.legal = e.LegalActionsInto(sc.legal[:0])
		if len(sc.legal) == 0 {
			return fmt.Errorf("drl: stuck episode")
		}
		a, err := agent.decide(sc.agent, e, sc.legal, sc.rng)
		if err != nil {
			return err
		}
		tr.steps = append(tr.steps, step{
			record: int32(sc.agent.record),
			action: int32(feat.IndexFor(a)),
			now:    e.Now(),
		})
		if err := e.Step(a); err != nil {
			return err
		}
	}
	tr.makespan = e.Makespan()
	return nil
}

// accumulatePolicyGradient turns the rollouts of one example into REINFORCE
// gradients with the averaged-trajectory baseline: the return-to-go of step
// t is G_t = now_t - makespan (each remaining time slot costs -1), and the
// baseline b_t averages G_t across the example's rollouts (§IV, following
// the per-timestep baseline of DeepRM). The backward pass runs in two
// phases: the first, in parallel over trajectories, puts each trajectory's
// gradient-carrying steps and their deltas on its tape; the second, in
// parallel over blocks of weights, sums the tapes into grads in trajectory
// order. Every weight's gradient is one ordered sum, the same bits at any
// worker count.
func (tr *trainer) accumulatePolicyGradient(grads *nn.Grads) error {
	// Per-step baseline across trajectories.
	maxLen := 0
	for _, t := range tr.trajs {
		maxLen = max(maxLen, len(t.steps))
	}
	tr.baseline = append(tr.baseline[:0], make([]float64, maxLen)...)
	tr.counts = append(tr.counts[:0], make([]int, maxLen)...)
	for _, t := range tr.trajs {
		for i, st := range t.steps {
			tr.baseline[i] += float64(st.now - t.makespan)
			tr.counts[i]++
		}
	}
	for i := range tr.baseline {
		if tr.counts[i] > 0 {
			tr.baseline[i] /= float64(tr.counts[i])
		}
	}

	err := tr.forEachRollout(func(_, i int) error {
		return backpropTrajectory(tr.agent.net, tr.trajs[i], tr.baseline, tr.tapes[i])
	})
	if err != nil {
		return err
	}
	sumTapes(tr.agent.net, grads, tr.tapes, tr.summers)
	return nil
}

// sumTapes is the second backward phase: it adds the weight gradients of the
// tapes to g, one block of output units at a time on one goroutine per
// scratch, and counts the tapes' samples. Every block walks the tapes in
// order, so the sums do not depend on the number of scratches.
func sumTapes(net *nn.Network, g *nn.Grads, tapes []*nn.Tape, scratches []*nn.Scratch) {
	parallel(len(scratches), net.GradBlocks(), func(w, b int) {
		net.SumBlock(scratches[w], g, tapes, b)
	})
	for _, t := range tapes {
		g.AddSamples(t.Samples())
	}
}

// backpropTrajectory is the first backward phase for one trajectory: it puts
// every step that carries gradient on the tape with the logit gradient
// (probs - onehot) * advantage, and runs the tape's Backprop. Nothing is
// evaluated again: a step's record holds the distribution the sampler drew
// from and the activations behind it, computed under the weights still in
// force, and the tape refers to them where they are. A step with an exact-zero
// advantage, or a forced one (its distribution is its one-hot action), would
// add nothing but is still a sample of the batch: the tape counts it, so
// that Apply's 1/n scaling averages over the true batch size instead of
// silently inflating the effective learning rate.
func backpropTrajectory(net *nn.Network, tr trajectory, baseline []float64, tape *nn.Tape) error {
	tape.Reset()
	state := net.RowStateSize()
	for t, st := range tr.steps {
		advantage := float64(st.now-tr.makespan) - baseline[t]
		// Exact-zero test: only a bit-exact zero contributes nothing.
		if advantage == 0 || st.record < 0 {
			tape.AddSamples(1)
			continue
		}
		rec := tr.records.row(int(st.record))
		d, err := net.PushRow(tape, rec[:state])
		if err != nil {
			return err
		}
		for i, p := range rec[state:] {
			d[i] = p * advantage
		}
		d[st.action] -= advantage
	}
	net.Backprop(tape)
	return nil
}
