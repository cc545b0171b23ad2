package drl

import (
	"errors"
	"fmt"
	"math/rand"

	"spear/internal/nn"
	"spear/internal/simenv"
)

// Agent wraps the policy network as a scheduling policy. In Sample mode it
// draws actions from the softmax distribution (used in training and MCTS
// rollouts, §III-D "it will draw one action from the distribution of the
// actions in the output layer"); in Greedy mode it takes the argmax.
type Agent struct {
	net    *nn.Network
	feat   Features
	greedy bool
	name   string
}

var (
	_ simenv.Policy        = (*Agent)(nil)
	_ simenv.ContextPolicy = (*Agent)(nil)
	_ simenv.BatchPolicy   = (*Agent)(nil)
)

// Agent errors.
var (
	errNilNetwork = errors.New("drl: nil network")
	errShape      = errors.New("drl: network shape does not match features")
	// errUnencodable reports an action the features cannot encode: a slot at
	// or past Window, or a machine other than 0.
	errUnencodable = errors.New("drl: action outside the encoded action space")
)

// NewAgent wraps net for the given featurization. greedy selects argmax
// action choice instead of sampling.
func NewAgent(net *nn.Network, feat Features, greedy bool) (*Agent, error) {
	if net == nil {
		return nil, errNilNetwork
	}
	if err := feat.Validate(); err != nil {
		return nil, err
	}
	if net.InputSize() != feat.InputSize() || net.OutputSize() != feat.OutputSize() {
		return nil, fmt.Errorf("%w: net %dx%d, features %dx%d",
			errShape, net.InputSize(), net.OutputSize(), feat.InputSize(), feat.OutputSize())
	}
	mode := "sample"
	if greedy {
		mode = "greedy"
	}
	return &Agent{net: net, feat: feat, greedy: greedy, name: "DRL-" + mode}, nil
}

// DefaultNetwork builds the paper's 256/32/32 policy network for the given
// featurization (§IV).
func DefaultNetwork(feat Features, rng *rand.Rand) (*nn.Network, error) {
	if err := feat.Validate(); err != nil {
		return nil, err
	}
	return nn.New([]int{feat.InputSize(), 256, 32, 32, feat.OutputSize()}, rng)
}

// Name implements simenv.Policy.
func (a *Agent) Name() string { return a.name }

// Network returns the wrapped policy network.
func (a *Agent) Network() *nn.Network { return a.net }

// Features returns the featurization the agent encodes states with.
func (a *Agent) Features() Features { return a.feat }

// AgentContext owns one goroutine's inference buffers: the encoded state, its
// legality mask and the network scratch holding the activations. The Agent
// itself is stateless and safe to share across goroutines; all
// per-call mutable state lives here, so MCTS rollout workers and REINFORCE
// sampling workers each carry their own context.
//
// The one-row path (probsCtx) is memoised per context: memo remembers the
// distributions this context has computed, key and probs are the packed
// episode state the memo is keyed on and the buffer a remembered answer is
// copied into, so whatever probsCtx returns is owned by the context either
// way. x and mask are written only when the network runs. calls and hits
// count the one-row evaluations asked for and those answered from the memo.
// A forced step (Features.forced) asks for none, so it is in neither count.
//
// A REINFORCE sampler's context (newRecordingContext) also keeps records: what
// each evaluation it ran computed, for backprop to read back. Its memo tags an
// entry with the id of the evaluation's record, and record is the id behind
// the latest decision's probsCtx answer, hit or miss, or -1 after a forced
// step. Records are dropped when the weights change; the memo is dropped
// then too, and on a change of job or capacity.
type AgentContext struct {
	x       []float64
	mask    []bool
	scratch *nn.Scratch

	key         []uint64
	probs       []float64
	memo        probsMemo
	calls, hits int64

	records *recordSlab // nil outside training
	record  int
}

var _ simenv.PolicyCounter = (*AgentContext)(nil)

// PolicyCounters implements simenv.PolicyCounter.
func (c *AgentContext) PolicyCounters() simenv.PolicyCounters {
	return simenv.PolicyCounters{Calls: c.calls, CacheHits: c.hits}
}

// newContext allocates a one-state context.
func (a *Agent) newContext() *AgentContext {
	width := a.feat.OutputSize()
	return &AgentContext{
		x:       make([]float64, a.feat.InputSize()),
		mask:    make([]bool, width),
		scratch: a.net.NewScratch(),
		key:     make([]uint64, a.feat.stateWords(64)),
		probs:   make([]float64, width),
		memo:    newProbsMemo(0, width, memoMaxSets), // useJob sizes the key
	}
}

// newRecordingContext is newContext for a REINFORCE sampler: it keeps a
// record of every evaluation it runs.
func (a *Agent) newRecordingContext() *AgentContext {
	ctx := a.newContext()
	ctx.records = &recordSlab{state: a.net.RowStateSize(), width: a.feat.OutputSize()}
	ctx.memo.tagWords = 1
	return ctx
}

// NewContext implements simenv.ContextPolicy.
func (a *Agent) NewContext() simenv.PolicyContext { return a.newContext() }

// NewBatchContext implements simenv.BatchPolicy. ChooseBatch runs one row at
// a time, so every batch shares one one-state context whatever maxRows is.
func (a *Agent) NewBatchContext(int) simenv.BatchPolicyContext { return a.newContext() }

// probsCtx evaluates the masked action distribution of one state. It packs
// the episode state and the mask of its legal actions into ctx's key and
// returns the distribution the memo holds for it, if ctx has already
// answered the same key for this job and capacity under the network's
// current weights; otherwise it encodes the state and the mask and runs the
// network over them. The returned slice is owned by ctx. After
// warm-up it performs zero heap allocations, hit or miss, until the memo next
// grows. Its callers do not call it on a forced step, whose distribution is
// known without it.
func (a *Agent) probsCtx(ctx *AgentContext, e *simenv.Env, legal []simenv.Action) ([]float64, error) {
	ctx.calls++
	m := &ctx.memo
	if gen := a.net.Generation(); gen != m.gen {
		m.reset(gen)
		if ctx.records != nil {
			ctx.records.reset()
		}
	}
	m.useJob(e, a.feat)
	key := ctx.key[:m.keyLen]
	h := a.feat.packState(e, legal, key, m.lane)
	if tag, ok := m.lookup(h, key, ctx.probs); ok {
		ctx.hits++
		ctx.record = int(tag)
		return ctx.probs, nil
	}
	a.feat.Encode(e, ctx.x)
	a.feat.Mask(legal, ctx.mask)
	probs, err := a.net.ProbsInto(ctx.scratch, ctx.x, ctx.mask)
	if err != nil {
		return nil, err
	}
	if ctx.records != nil {
		ctx.record = ctx.records.save(a.net, ctx.scratch, probs)
	}
	m.insert(h, key, probs, int64(ctx.record), ctx.calls > memoTrialCalls)
	return probs, nil
}

// draw is the one random number a decision consumes: a uniform from rng in
// sample mode, nothing in greedy mode. A forced step draws it too, so the
// generator advances as if the distribution had been sampled.
func (a *Agent) draw(rng *rand.Rand) (float64, error) {
	if a.greedy {
		return 0, nil
	}
	if rng == nil {
		return 0, errors.New("drl: sampling agent requires an rng")
	}
	return rng.Float64(), nil
}

// selectAction turns the action distribution into a decision: argmax in
// greedy mode, a sample otherwise.
func (a *Agent) selectAction(probs []float64, rng *rand.Rand) (simenv.Action, error) {
	u, err := a.draw(rng)
	if err != nil {
		return 0, err
	}
	if a.greedy {
		best, bestP := -1, -1.0
		for i, p := range probs {
			if p > bestP {
				best, bestP = i, p
			}
		}
		return a.feat.ActionFor(best), nil
	}
	return a.feat.ActionFor(sampleIndex(probs, u)), nil
}

// decide makes one decision on ctx. A forced step's masked distribution is 1
// on its one action, so it returns that action after the draw selectAction
// would make, evaluating nothing and setting ctx.record to -1; any other step
// is probsCtx followed by selectAction.
func (a *Agent) decide(ctx *AgentContext, e *simenv.Env, legal []simenv.Action, rng *rand.Rand) (simenv.Action, error) {
	if a.feat.forced(legal) {
		ctx.record = -1
		if _, err := a.draw(rng); err != nil {
			return 0, err
		}
		return legal[0], nil
	}
	probs, err := a.probsCtx(ctx, e, legal)
	if err != nil {
		return 0, err
	}
	return a.selectAction(probs, rng)
}

// Choose implements simenv.Policy: ChooseCtx on a fresh context. Anything
// that chooses more than once should hold a context instead.
func (a *Agent) Choose(e *simenv.Env, legal []simenv.Action, rng *rand.Rand) (simenv.Action, error) {
	return a.ChooseCtx(a.newContext(), e, legal, rng)
}

// ChooseCtx implements simenv.ContextPolicy. After warm-up the whole
// per-step inference path (Encode, forward pass, masked softmax, action
// selection) performs zero heap allocations. A forced step skips that path:
// it returns its one action, drawing what sampling would have drawn.
func (a *Agent) ChooseCtx(pc simenv.PolicyContext, e *simenv.Env, legal []simenv.Action, rng *rand.Rand) (simenv.Action, error) {
	ctx, ok := pc.(*AgentContext)
	if !ok {
		return 0, fmt.Errorf("drl: foreign policy context %T", pc)
	}
	return a.decide(ctx, e, legal, rng)
}

// ChooseBatch implements simenv.BatchPolicy: ChooseCtx once per row, so row
// i's choice is ChooseCtx's on envs[i] with rngs[i], bit for bit.
func (a *Agent) ChooseBatch(pc simenv.BatchPolicyContext, envs []*simenv.Env, legal [][]simenv.Action, rngs []*rand.Rand, out []simenv.Action) error {
	for i, e := range envs {
		action, err := a.ChooseCtx(pc, e, legal[i], rngs[i])
		if err != nil {
			return err
		}
		out[i] = action
	}
	return nil
}

// sampleIndex picks the index proportional to probs (which sum to 1 over the
// unmasked entries) that the uniform draw u in [0, 1) lands on.
func sampleIndex(probs []float64, u float64) int {
	acc := 0.0
	last := 0
	for i, p := range probs {
		if p <= 0 {
			continue
		}
		acc += p
		last = i
		if u < acc {
			return i
		}
	}
	return last // numerical remainder falls to the last unmasked action
}

// Expander adapts the agent as an MCTS expansion strategy: among the
// untried actions it picks the one the policy network assigns the highest
// probability, so the search expands "the best unexplored node" (§III-C).
// The Expander owns a private inference context (expansion runs on the
// single search goroutine), so it is NOT safe to share one Expander across
// concurrently running searches — build one per search, as core.New does.
type Expander struct {
	agent *Agent
	ctx   *AgentContext
}

var _ simenv.PolicyCounter = (*Expander)(nil)

// PolicyCounters implements simenv.PolicyCounter.
func (x *Expander) PolicyCounters() simenv.PolicyCounters { return x.ctx.PolicyCounters() }

// NewExpander wraps the agent for MCTS expansion.
func NewExpander(agent *Agent) *Expander {
	return &Expander{agent: agent, ctx: agent.newContext()}
}

// Name implements mcts.Expander.
func (x *Expander) Name() string { return "drl" }

// Next implements mcts.Expander. An untried action the features cannot
// encode is an error (errUnencodable); a single encodable one is returned
// without evaluating the policy.
func (x *Expander) Next(e *simenv.Env, untried []simenv.Action, _ *rand.Rand) (int, error) {
	feat := x.agent.feat
	for _, a := range untried {
		if !feat.encodable(a) {
			return 0, fmt.Errorf("%w: expander offered action %d (slot %d, machine %d) with window %d",
				errUnencodable, a, a.Slot(), a.Machine(), feat.Window)
		}
	}
	if feat.forced(untried) {
		return 0, nil
	}
	probs, err := x.agent.probsCtx(x.ctx, e, untried)
	if err != nil {
		return 0, err
	}
	best, bestP := 0, -1.0
	for i, a := range untried {
		if p := probs[feat.IndexFor(a)]; p > bestP {
			best, bestP = i, p
		}
	}
	return best, nil
}
