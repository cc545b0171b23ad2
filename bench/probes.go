package main

import (
	"fmt"
	"math/rand"
	"time"

	"spear/internal/cluster"
	"spear/internal/resource"
	"spear/internal/simenv"
)

// A probe calls a layer's public functions in a loop over states taken from
// the workload and reports the median pass. A layer's share of a traced run
// is its probe time multiplied by how often the run called it.

// maxProbeRounds bounds the rounds a probe set makes within its time budget.
const maxProbeRounds = 64

// probeSet times a number of loops round-robin: one pass of each per round.
// The box this runs on has slow phases that last longer than any one loop;
// taking every loop's passes from the same rounds makes a slow phase hit
// them all alike, and the median over rounds then drops it.
type probeSet struct {
	ops     []int
	passes  []func()
	samples [][]float64
}

// add registers a loop that makes ops calls per pass and returns its index.
func (ps *probeSet) add(ops int, pass func()) int {
	ps.ops = append(ps.ops, ops)
	ps.passes = append(ps.passes, pass)
	ps.samples = append(ps.samples, nil)
	return len(ps.passes) - 1
}

// run makes sz.probePasses rounds, and more while the budget lasts.
func (ps *probeSet) run(sz sizes) {
	budget := sz.probeBudget * time.Duration(len(ps.passes))
	began := time.Now()
	for round := 0; round < sz.probePasses || (round < maxProbeRounds && time.Since(began) < budget); round++ {
		for i, pass := range ps.passes {
			passBegan := time.Now()
			pass()
			ps.samples[i] = append(ps.samples[i], float64(time.Since(passBegan).Nanoseconds())/float64(ps.ops[i]))
		}
	}
}

// ns is the median nanoseconds per call of loop i.
func (ps *probeSet) ns(i int) float64 { return median(ps.samples[i]) }

// innerReps is how often a pass walks n items to make at least ops calls,
// so that a 10 ns call is not lost in the clock's own cost.
func innerReps(n, ops int) int {
	if n >= ops {
		return 1
	}
	return (ops + n - 1) / n
}

// firstErr keeps the first error a probe loop sees; a probe that fails
// makes the traced pass fail.
type firstErr struct{ err error }

func (f *firstErr) note(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

func positive(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// trajectory is one recorded rollout: where it started and what the policy
// chose at every step.
type trajectory struct {
	start   *simenv.Env
	actions []simenv.Action
}

// recordRollouts plays the policy to the end from count of the starts,
// spread evenly, and keeps each rollout's actions and about one visited
// state in eight. Rollout steps happen in the visited states, not in the
// starts: later in the episode, with a fuller cluster.
func recordRollouts(starts []*simenv.Env, policy simenv.Policy, count int) ([]trajectory, []*simenv.Env, error) {
	if len(starts) == 0 {
		return nil, nil, fmt.Errorf("no states to probe")
	}
	if count > len(starts) {
		count = len(starts)
	}
	stride := len(starts) / count
	rng := rand.New(rand.NewSource(2))
	trajs := make([]trajectory, 0, count)
	var visited []*simenv.Env
	var legal []simenv.Action
	for i := 0; i < count; i++ {
		start := starts[i*stride]
		e := start.Clone()
		var actions []simenv.Action
		for !e.Done() {
			legal = e.LegalActionsInto(legal[:0])
			if len(legal) == 0 {
				return nil, nil, fmt.Errorf("record rollouts: stuck episode")
			}
			if rng.Intn(8) == 0 {
				visited = append(visited, e.Clone())
			}
			a, err := policy.Choose(e, legal, rng)
			if err != nil {
				return nil, nil, err
			}
			if err := e.Step(a); err != nil {
				return nil, nil, err
			}
			actions = append(actions, a)
		}
		if len(actions) > 0 {
			trajs = append(trajs, trajectory{start: start, actions: actions})
		}
	}
	if len(trajs) == 0 || len(visited) == 0 {
		return nil, nil, fmt.Errorf("record rollouts: every start was a finished episode")
	}
	return trajs, visited, nil
}

// replayProbe is what the rollout loop costs, part by part, measured by
// replaying recorded rollouts with one more part switched on each time:
// steps alone, then the legal-action scan before each, then the policy
// call. Steps run in their real order on a state that evolves, which a
// loop over unrelated states does not reproduce (it reads 30 % low).
type replayProbe struct {
	stepNs   float64 // Env.Step, schedule and process steps mixed as recorded
	legalNs  float64 // Env.LegalActionsInto
	policyNs float64 // the rollout policy's choice
	cloneNs  float64 // Env.CloneInto a warm scratch episode, per rollout
}

// addReplay registers the replay loops and returns how to read the result.
// policyNs stays 0 unless withPolicy is set: the DRL agent is timed in the
// run itself, by its wrapper's spans.
func addReplay(ps *probeSet, fe *firstErr, trajs []trajectory, policy simenv.Policy, withPolicy bool) func() replayProbe {
	steps := 0
	for _, t := range trajs {
		steps += len(t.actions)
	}
	cp, fast := policy.(simenv.ContextPolicy)
	var pc simenv.PolicyContext
	if fast {
		pc = cp.NewContext()
	}
	rng := rand.New(rand.NewSource(3))
	var scratch *simenv.Env
	var legal []simenv.Action
	// replay runs every trajectory once; parts selects what runs per step
	// besides Step itself: 1 adds the legal scan, 2 the policy as well.
	replay := func(parts int) func() {
		return func() {
			for _, t := range trajs {
				scratch = t.start.CloneInto(scratch)
				for _, a := range t.actions {
					if parts >= 1 {
						legal = scratch.LegalActionsInto(legal[:0])
					}
					if parts >= 2 {
						var err error
						if fast {
							_, err = cp.ChooseCtx(pc, scratch, legal, rng)
						} else {
							_, err = policy.Choose(scratch, legal, rng)
						}
						fe.note(err)
					}
					fe.note(scratch.Step(a))
				}
			}
		}
	}
	clones := ps.add(len(trajs), func() {
		for _, t := range trajs {
			scratch = t.start.CloneInto(scratch)
		}
	})
	stepOnly := ps.add(steps, replay(0))
	withLegal := ps.add(steps, replay(1))
	all := -1
	if withPolicy {
		all = ps.add(steps, replay(2))
	}
	return func() replayProbe {
		// The replay loops include one clone per trajectory.
		clonePerStep := ps.ns(clones) * float64(len(trajs)) / float64(steps)
		p := replayProbe{
			stepNs:  positive(ps.ns(stepOnly) - clonePerStep),
			legalNs: positive(ps.ns(withLegal) - ps.ns(stepOnly)),
			cloneNs: ps.ns(clones),
		}
		if all >= 0 {
			p.policyNs = positive(ps.ns(all) - ps.ns(withLegal))
		}
		return p
	}
}

// addRollouts registers the product's own rollout loop on the recorded
// starts; the result is the mean microseconds one rollout takes. The parts
// of replayProbe must add up to it: that is what attribution.coverage
// checks.
func addRollouts(ps *probeSet, fe *firstErr, trajs []trajectory, policy simenv.Policy) func() float64 {
	rc := simenv.NewRolloutContext(policy)
	rng := rand.New(rand.NewSource(3))
	i := ps.add(len(trajs), func() {
		for _, t := range trajs {
			_, err := rc.RolloutFrom(t.start, rng)
			fe.note(err)
		}
	})
	return func() float64 { return ps.ns(i) / 1e3 }
}

// clusterProbe is what the cluster layer's calls cost on the visited
// states. These are loops over unrelated states and read low; they split
// the environment's measured time between simenv and cluster, no more.
type clusterProbe struct {
	earliestStartNs, earliestStartAnyNs float64
	fitsNs, placeNs, cloneNs            float64
	// fitsPerLegal is the mean number of FitsAt calls one LegalActionsInto
	// makes: visible tasks times machines.
	fitsPerLegal float64
}

// readyTask is the task a cluster probe asks about in one state.
type readyTask struct {
	space    *cluster.Multi
	now      int64
	demand   resource.Vector
	runtime  int64
	machine  int
	earliest int64
}

func addCluster(ps *probeSet, fe *firstErr, states []*simenv.Env, sz sizes) (func() clusterProbe, error) {
	var tasks []readyTask
	var fits float64
	for _, e := range states {
		fits += float64(e.NumVisible() * e.NumMachines())
		if e.NumVisible() == 0 {
			continue
		}
		task := e.Graph().Task(e.VisibleTask(0))
		m, start, err := e.Cluster().EarliestStartAny(e.Now(), task.Demand, task.Runtime)
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, readyTask{space: e.Cluster(), now: e.Now(), demand: task.Demand, runtime: task.Runtime, machine: m, earliest: start})
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("cluster probe: no state has a ready task")
	}
	reps := innerReps(len(tasks), sz.probeOps)
	ops := len(tasks) * reps
	var fitted int
	fitsAt := ps.add(ops, func() {
		for r := 0; r < reps; r++ {
			for _, t := range tasks {
				if t.space.FitsAt(0, t.now, t.demand, t.runtime) {
					fitted++
				}
			}
		}
	})
	earliest := ps.add(ops, func() {
		for r := 0; r < reps; r++ {
			for _, t := range tasks {
				_, err := t.space.Machine(0).EarliestStart(t.now, t.demand, t.runtime)
				fe.note(err)
			}
		}
	})
	earliestAny := -1
	if tasks[0].space.NumMachines() > 1 {
		earliestAny = ps.add(ops, func() {
			for r := 0; r < reps; r++ {
				for _, t := range tasks {
					_, _, err := t.space.EarliestStartAny(t.now, t.demand, t.runtime)
					fe.note(err)
				}
			}
		})
	}
	var space *cluster.Multi
	clone := ps.add(ops, func() {
		for r := 0; r < reps; r++ {
			for _, t := range tasks {
				space = t.space.CloneInto(space)
			}
		}
	})
	// Place needs a fresh copy of the grid, so it is timed with the copy
	// and the copy's own time is taken off.
	cloneAndPlace := ps.add(ops, func() {
		for r := 0; r < reps; r++ {
			for _, t := range tasks {
				space = t.space.CloneInto(space)
				fe.note(space.Place(t.machine, t.earliest, t.demand, t.runtime))
			}
		}
	})
	return func() clusterProbe {
		p := clusterProbe{
			earliestStartNs: ps.ns(earliest),
			fitsNs:          ps.ns(fitsAt),
			placeNs:         positive(ps.ns(cloneAndPlace) - ps.ns(clone)),
			cloneNs:         ps.ns(clone),
			fitsPerLegal:    fits / float64(len(states)),
		}
		if earliestAny >= 0 {
			p.earliestStartAnyNs = ps.ns(earliestAny)
		}
		return p
	}, nil
}

// nnProbe is what the nn and drl-encode probes measured.
type nnProbe struct {
	probsNs, forwardRowNs, backwardRowNs, encodeNs float64
	macs                                           float64
}

const batchRows = 16

func addNN(ps *probeSet, fe *firstErr, in *inputs, states []*simenv.Env, sz sizes) (func() nnProbe, error) {
	n := len(states)
	layers := in.net.Sizes()
	var macs float64
	for l := 0; l+1 < len(layers); l++ {
		macs += float64(layers[l] * layers[l+1])
	}

	legal := make([][]simenv.Action, n)
	xs := make([][]float64, n)
	masks := make([][]bool, n)
	for i, e := range states {
		legal[i] = e.LegalActions()
		if len(legal[i]) == 0 {
			return nil, fmt.Errorf("nn probe: state %d is a finished episode", i)
		}
		xs[i] = in.feat.Encode(e, nil)
		masks[i] = in.feat.Mask(legal[i], nil)
	}
	x := make([]float64, in.feat.InputSize())
	mask := make([]bool, in.feat.OutputSize())
	reps := innerReps(n, sz.probeOps)
	encode := ps.add(n*reps, func() {
		for r := 0; r < reps; r++ {
			for i, e := range states {
				x = in.feat.Encode(e, x)
				mask = in.feat.Mask(legal[i], mask)
			}
		}
	})
	// One forward pass is tens of microseconds: fewer calls make a pass.
	probsReps := innerReps(n, sz.probeOps/16)
	scratch := in.net.NewScratch()
	probs := ps.add(n*probsReps, func() {
		for r := 0; r < probsReps; r++ {
			for i := range xs {
				_, err := in.net.ProbsInto(scratch, xs[i], masks[i])
				fe.note(err)
			}
		}
	})

	inSize, outSize := in.net.InputSize(), in.net.OutputSize()
	batchX := make([]float64, batchRows*inSize)
	batchMask := make([]bool, batchRows*outSize)
	for r := 0; r < batchRows; r++ {
		copy(batchX[r*inSize:(r+1)*inSize], xs[r%n])
		copy(batchMask[r*outSize:(r+1)*outSize], masks[r%n])
	}
	batches := sz.probeOps / (8 * batchRows)
	if batches < 1 {
		batches = 1
	}
	forward := ps.add(batches*batchRows, func() {
		for b := 0; b < batches; b++ {
			_, err := in.net.ForwardBatchInto(scratch, batchX, batchRows)
			fe.note(err)
		}
	})
	// The REINFORCE logit gradient: probabilities minus the taken action.
	batchProbs, err := in.net.ProbsBatchInto(scratch, batchX, batchRows, batchMask)
	if err != nil {
		return nil, err
	}
	dLogits := append([]float64(nil), batchProbs...)
	for r := 0; r < batchRows; r++ {
		dLogits[r*outSize+in.feat.IndexFor(legal[r%n][0])] -= 1
	}
	grads := in.net.NewGrads()
	// Runs after forward in every round, so the scratch holds this batch.
	backward := ps.add(batches*batchRows, func() {
		for b := 0; b < batches; b++ {
			fe.note(in.net.BackwardBatchInto(scratch, dLogits, batchRows, grads))
		}
	})
	return func() nnProbe {
		return nnProbe{
			probsNs:       ps.ns(probs),
			forwardRowNs:  ps.ns(forward),
			backwardRowNs: ps.ns(backward),
			encodeNs:      ps.ns(encode),
			macs:          macs,
		}
	}, nil
}
