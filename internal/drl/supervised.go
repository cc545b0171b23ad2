package drl

import (
	"fmt"
	"math"
	"math/rand"

	"spear/internal/baselines"
	"spear/internal/dag"
	"spear/internal/nn"
	"spear/internal/resource"
	"spear/internal/simenv"
)

// PretrainConfig parameterizes supervised warm-start training. Per §IV,
// the network first imitates a greedy heuristic (the critical-path
// algorithm) so that early RL simulations produce meaningful trajectories:
// one CP demonstration episode per job, under OneSlot process semantics.
type PretrainConfig struct {
	// Epochs over the collected demonstration set. Default 10.
	Epochs int
	// Opt is the optimizer; zero value means nn.DefaultRMSProp.
	Opt nn.RMSProp
}

// pretrainBatchSize is the minibatch size of the supervised updates.
const pretrainBatchSize = 32

func (c PretrainConfig) normalized() PretrainConfig {
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.Opt == (nn.RMSProp{}) {
		c.Opt = nn.DefaultRMSProp()
	}
	return c
}

// sample is one supervised example: encoded state, legality mask and the
// teacher's action index.
type sample struct {
	x      []float64
	mask   []bool
	action int
}

// Pretrain teaches net to imitate the CP heuristic on the given jobs and
// returns the mean cross-entropy loss per epoch. Every minibatch is one
// batched forward and one batched backward pass through a single reused
// scratch and gradient buffer; the kernels accumulate in row order, so the
// trained network is the one per-sample backprop would produce, bit for bit.
func Pretrain(net *nn.Network, feat Features, jobs []*dag.Graph, capacity resource.Vector, cfg PretrainConfig, rng *rand.Rand) ([]float64, error) {
	if cfg.Epochs < 0 {
		return nil, fmt.Errorf("drl: negative Epochs %d (0 means the default)", cfg.Epochs)
	}
	cfg = cfg.normalized()
	if net == nil {
		return nil, errNilNetwork
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("drl: no pretraining jobs")
	}
	if net.InputSize() != feat.InputSize() || net.OutputSize() != feat.OutputSize() {
		return nil, errShape
	}

	samples, err := collectDemonstrations(feat, jobs, capacity, rng)
	if err != nil {
		return nil, err
	}

	in, out := net.InputSize(), net.OutputSize()
	scratch := net.NewScratch()
	bx, bmask := make([]float64, pretrainBatchSize*in), make([]bool, pretrainBatchSize*out)
	bd := make([]float64, pretrainBatchSize*out)
	grads := net.NewGrads()
	losses := make([]float64, 0, cfg.Epochs)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
		var epochLoss float64
		for start := 0; start < len(samples); start += pretrainBatchSize {
			end := start + pretrainBatchSize
			if end > len(samples) {
				end = len(samples)
			}
			batch := samples[start:end]
			rows := len(batch)
			for r, s := range batch {
				copy(bx[r*in:(r+1)*in], s.x)
				copy(bmask[r*out:(r+1)*out], s.mask)
			}
			probs, err := net.ProbsBatchInto(scratch, bx[:rows*in], rows, bmask[:rows*out])
			if err != nil {
				return nil, err
			}
			// Cross-entropy logit gradient: probs minus the teacher's one-hot.
			d := bd[:rows*out]
			copy(d, probs)
			for r, s := range batch {
				epochLoss += -math.Log(math.Max(probs[r*out+s.action], 1e-12))
				d[r*out+s.action] -= 1
			}
			if err := net.BackwardBatchInto(scratch, d, rows, grads); err != nil {
				return nil, err
			}
			// Apply leaves grads zeroed for the next minibatch.
			if err := net.Apply(grads, cfg.Opt); err != nil {
				return nil, err
			}
		}
		losses = append(losses, epochLoss/float64(len(samples)))
	}
	return losses, nil
}

// collectDemonstrations runs the CP teacher once per job, recording every
// decision as a supervised sample.
func collectDemonstrations(feat Features, jobs []*dag.Graph, capacity resource.Vector, rng *rand.Rand) ([]sample, error) {
	teacher := baselines.CP{}
	var samples []sample
	for ji, g := range jobs {
		e, err := simenv.New(g, capacity, simenv.Config{Window: feat.Window, Mode: simenv.OneSlot})
		if err != nil {
			return nil, fmt.Errorf("drl: job %d: %w", ji, err)
		}
		for !e.Done() {
			legal := e.LegalActions()
			if len(legal) == 0 {
				return nil, fmt.Errorf("drl: job %d: stuck episode", ji)
			}
			a, err := teacher.Choose(e, legal, rng)
			if err != nil {
				return nil, fmt.Errorf("drl: teacher %s: %w", teacher.Name(), err)
			}
			samples = append(samples, sample{
				x:      feat.Encode(e, nil),
				mask:   feat.Mask(legal, nil),
				action: feat.IndexFor(a),
			})
			if err := e.Step(a); err != nil {
				return nil, fmt.Errorf("drl: job %d: %w", ji, err)
			}
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("drl: teacher produced no demonstrations")
	}
	return samples, nil
}
