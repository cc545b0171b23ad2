package main

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"time"

	"spear/internal/baselines"
	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/drl"
	"spear/internal/obs"
	"spear/internal/sched"
	"spear/internal/simenv"
)

// counter reads one counter of a metrics snapshot, 0 when it is absent.
func counter(snap obs.Snapshot, name string) float64 {
	v, _ := snap.Value(name)
	return v
}

// layerProbes is everything probed on one workload's states.
type layerProbes struct {
	replay    replayProbe
	cluster   clusterProbe
	nn        nnProbe // zero unless the workload runs the network
	rolloutUs float64 // one whole rollout of the product's own loop
}

// probeLayers records rollouts of the policy from the starts and runs every
// probe on them; withNN adds the network probes.
func probeLayers(in *inputs, starts []*simenv.Env, policy simenv.Policy, sz sizes, withNN bool) (layerProbes, error) {
	var p layerProbes
	trajs, visited, err := recordRollouts(starts, policy, sz.rolloutStates)
	if err != nil {
		return p, err
	}
	var ps probeSet
	var fe firstErr
	replay := addReplay(&ps, &fe, trajs, policy, !withNN)
	rollouts := addRollouts(&ps, &fe, trajs, policy)
	clusterCalls, err := addCluster(&ps, &fe, visited, sz)
	if err != nil {
		return p, err
	}
	var network func() nnProbe
	if withNN {
		if network, err = addNN(&ps, &fe, in, visited, sz); err != nil {
			return p, err
		}
	}
	ps.run(sz)
	p.replay, p.rolloutUs, p.cluster = replay(), rollouts(), clusterCalls()
	if withNN {
		p.nn = network()
	}
	return p, fe.err
}

// metrics reports the probes under their metric names.
func (p layerProbes) metrics() metrics {
	m := metrics{
		"simenv.step_ns":                p.replay.stepNs,
		"simenv.legal_ns":               p.replay.legalNs,
		"simenv.clone_ns":               p.replay.cloneNs,
		"simenv.rollout_us":             p.rolloutUs,
		"cluster.earliest_start_ns":     p.cluster.earliestStartNs,
		"cluster.earliest_start_any_ns": p.cluster.earliestStartAnyNs,
		"cluster.fits_ns":               p.cluster.fitsNs,
		"cluster.place_ns":              p.cluster.placeNs,
		"cluster.clone_ns":              p.cluster.cloneNs,
	}
	if p.nn.macs > 0 {
		m["nn.probs_ns"] = p.nn.probsNs
		m["nn.forward_batch16_ns_per_row"] = p.nn.forwardRowNs
		m["nn.backward_batch16_ns_per_row"] = p.nn.backwardRowNs
		m["nn.macs_per_forward"] = p.nn.macs
		m["nn.gmacs_per_s"] = ratio(p.nn.macs, p.nn.probsNs)
		m["drl.encode_ns"] = p.nn.encodeNs
	}
	return m
}

// searchCounts is how often a traced search called each layer.
type searchCounts struct {
	wallNs                           float64
	placed, advances, clones         float64
	policyCalls, policyNs            float64
	expanderCalls, expanderNs        float64
	iterations, expansions, rollouts float64
	drl                              bool // the policy and expander are the DRL ones and were timed
}

// attributeSearch splits a traced search's wall time over the layers. The
// rollouts are predicted twice: whole (rollouts x the product's rollout
// loop, which fixes the tree's residual) and from the parts (policy, steps
// and legal scans x their call counts). Coverage is 1 when the two agree.
func attributeSearch(c searchCounts, p layerProbes) metrics {
	steps := c.placed + c.advances
	legalCalls := c.policyCalls + c.expansions

	clusterNs := c.placed*p.cluster.placeNs + c.clones*p.cluster.cloneNs + legalCalls*p.cluster.fitsPerLegal*p.cluster.fitsNs
	envNs := steps*p.replay.stepNs + legalCalls*p.replay.legalNs + c.clones*p.replay.cloneNs
	// An expansion clones the parent, steps it and scans the child's legal
	// actions: simenv work the tree residual must not count again.
	expansionEnvNs := c.expansions * (p.replay.cloneNs + p.replay.stepNs + p.replay.legalNs)
	treeNs := positive(c.wallNs - c.rollouts*p.rolloutUs*1e3 - c.expanderNs - expansionEnvNs)

	m := metrics{
		"simenv.share":               ratio(positive(envNs-clusterNs), c.wallNs),
		"cluster.share":              ratio(clusterNs, c.wallNs),
		"mcts.tree_ns_per_iteration": ratio(treeNs, c.iterations),
		"mcts.tree_share":            ratio(treeNs, c.wallNs),
	}
	if c.drl {
		nnNs := p.nn.probsNs * (c.policyCalls + c.expanderCalls)
		m["nn.share"] = ratio(nnNs, c.wallNs)
		m["drl.self_share"] = ratio(positive(c.policyNs+c.expanderNs-nnNs), c.wallNs)
	} else {
		m["mcts.rollout_policy_share"] = ratio(c.policyCalls*p.replay.policyNs, c.wallNs)
	}
	m["attribution.coverage"] = m["nn.share"] + m["drl.self_share"] + m["simenv.share"] +
		m["cluster.share"] + m["mcts.rollout_policy_share"] + m["mcts.tree_share"]
	return m
}

func (c searchCase) trace(in *inputs, sz sizes) (outcome, *tracer) {
	var o outcome
	o.m = metrics{"workload.gen_us_per_job": in.genUsPerJob}
	n := sz.tracedMCTSJobs
	if c.spear {
		n = sz.tracedSpearJobs
	}
	spec := c.spec(in.capacity)
	jobs := in.dags[:n]

	// The same prefix without and with the wrappers.
	bare, err := c.build(in, engine{}, nil)
	if err != nil {
		o.check("build scheduler", err)
		return o, nil
	}
	base := runJobs(bare, spec, jobs, n, 0, nil)
	tr := newTracer(sz.probeStates, searchSpans)
	wrapped, err := c.build(in, engine{}, tr)
	if err != nil {
		o.check("build traced scheduler", err)
		return o, nil
	}
	run := runJobs(wrapped, spec, jobs, n, 0, tr)
	snap := wrapped.Metrics()
	o.add(base.outcome)
	o.add(run.outcome)
	var differ error
	if !slices.Equal(base.makespans, run.makespans) {
		differ = fmt.Errorf("%v, untraced %v", run.makespans, base.makespans)
	}
	o.check("traced makespans", differ)

	counts := searchCounts{
		wallNs:        run.cost.seconds * 1e9,
		placed:        counter(snap, "spear_sim_tasks_placed_total"),
		advances:      counter(snap, "spear_sim_slot_advances_total"),
		clones:        counter(snap, "spear_sim_env_clones_total"),
		policyCalls:   float64(tr.policyCalls),
		policyNs:      float64(tr.policyNs),
		expanderCalls: float64(tr.expanderCalls),
		expanderNs:    float64(tr.expanderNs),
		iterations:    float64(run.stats.Iterations),
		expansions:    float64(run.stats.Expansions),
		rollouts:      float64(run.stats.Rollouts),
		drl:           c.spear,
	}
	reuse := counter(snap, "spear_sim_env_clone_reuse_total")
	slotReuse := counter(snap, "spear_cluster_slot_reuse_total")
	slotGrow := counter(snap, "spear_cluster_slot_grow_total")

	// Probes run after the counters are read: the captured states count
	// into the scheduler's registry when they are cloned and stepped.
	var policy simenv.Policy = baselines.Random{}
	if c.spear {
		if policy, err = drl.NewAgent(in.net, in.feat, false); err != nil {
			o.check("rollout agent", err)
			return o, tr
		}
	}
	probes, err := probeLayers(in, tr.captured, policy, sz, c.spear)
	o.check("layer probes", err)
	if err != nil {
		return o, tr
	}
	maps.Copy(o.m, probes.metrics())
	maps.Copy(o.m, attributeSearch(counts, probes))
	if c.spear {
		o.m["drl.policy_calls"] = counts.policyCalls
		o.m["drl.policy_ns_per_call"] = ratio(counts.policyNs, counts.policyCalls)
		o.m["drl.expander_calls"] = counts.expanderCalls
		o.m["drl.expander_ns_per_call"] = ratio(counts.expanderNs, counts.expanderCalls)
	}
	o.m["simenv.steps"] = counts.placed + counts.advances
	o.m["simenv.clones"] = counts.clones
	o.m["simenv.clone_reuse_ratio"] = ratio(reuse, counts.clones)
	o.m["cluster.placements"] = counts.placed
	o.m["cluster.slot_advances"] = counts.advances
	o.m["cluster.slot_reuse_ratio"] = ratio(slotReuse, slotReuse+slotGrow)
	o.m["mcts.iterations"] = counts.iterations
	o.m["mcts.expansions"] = counts.expansions
	o.m["mcts.rollouts"] = counts.rollouts
	o.m["mcts.rollout_len_mean"] = ratio(counts.policyCalls, counts.rollouts)
	o.m["mcts.forced_move_ratio"] = ratio(float64(run.stats.ForcedMoves), float64(run.stats.Decisions))
	o.m["mcts.serial.makespan_mean"] = mean(base.makespans)
	allocMetrics(o.m, float64(len(base.jobMs)), base.cost)
	o.m["trace.overhead_ratio"] = ratio(run.cost.seconds, base.cost.seconds)

	// The other engines on the same prefix and budget: the equal-budget
	// evidence for keeping or deleting each mode (ROADMAP item 2).
	baseSims := ratio(float64(base.stats.Rollouts), base.cost.seconds)
	for _, alt := range []struct {
		name    string
		eng     engine
		workers float64
	}{
		{"mcts.tree_j2", engine{treeJ: 2}, 2},
		{"mcts.root_k2", engine{rootK: 2}, 2},
		{"mcts.tt", engine{useTTs: true}, 0},
	} {
		s, err := c.build(in, alt.eng, nil)
		if err != nil {
			o.check(alt.name+": build scheduler", err)
			continue
		}
		r := runJobs(s, spec, jobs, n, 0, nil)
		o.add(r.outcome)
		sims := ratio(float64(r.stats.Rollouts), r.cost.seconds)
		o.m[alt.name+".sims_per_s"] = sims
		o.m[alt.name+".speedup"] = ratio(sims, baseSims)
		o.m[alt.name+".makespan_mean"] = mean(r.makespans)
		if alt.workers > 0 {
			o.m[alt.name+".efficiency"] = ratio(sims, baseSims) / alt.workers
		} else {
			o.m[alt.name+".hit_ratio"] = ratio(float64(r.stats.TTHits), float64(r.stats.TTHits+r.stats.TTMisses))
		}
	}

	if c.spear {
		probeBaselines(&o, jobs, spec, sz)
	}
	return o, tr
}

// probeBaselines times the list-scheduling baselines on the Spear DAGs: the
// Fig. 6(b) row next to Spear's own job time.
func probeBaselines(o *outcome, jobs []*dag.Graph, spec cluster.Spec, sz sizes) {
	var ps probeSet
	var fe firstErr
	var idx []int
	rows := []struct {
		name  string
		s     sched.Scheduler
		scale float64
	}{
		{"baselines.cp_us_per_job", baselines.NewCPScheduler(), 1e-3},
		{"baselines.tetris_us_per_job", baselines.NewTetrisScheduler(), 1e-3},
		{"baselines.sjf_us_per_job", baselines.NewSJFScheduler(), 1e-3},
		{"baselines.graphene_ms_per_job", baselines.NewGrapheneScheduler(), 1e-6},
	}
	for _, b := range rows {
		planner := b.s
		idx = append(idx, ps.add(len(jobs), func() {
			for _, g := range jobs {
				plan, err := planner.Schedule(g, spec)
				if err == nil {
					_, err = checkSchedule(g, spec, plan)
				}
				fe.note(err)
			}
		}))
	}
	ps.run(sz)
	o.check("baseline probes", fe.err)
	for i, b := range rows {
		o.m[b.name] = ps.ns(idx[i]) * b.scale
	}
}

func traceServe(in *inputs, sz sizes) (outcome, *tracer) {
	var o outcome
	o.m = metrics{"workload.gen_us_per_job": in.genUsPerJob}
	cfg := serveConfig(in.serveSeed, sz.serveHorizon, true)
	base, err := runSegment(cfg, baselines.NewCPScheduler())
	if err != nil {
		o.check("serve segment", err)
		return o, nil
	}
	tr := newTracer(0, fewSpans)
	root := tr.begin(spanJob, 0)
	seg, err := runSegment(cfg, &tracedScheduler{inner: baselines.NewCPScheduler(), tr: tr})
	tr.end(root)
	if err != nil {
		o.check("traced serve segment", err)
		return o, tr
	}
	sum := seg.log.Summary
	checkConservation(&o, sum)

	// The wrapper must not change a byte of the run log.
	marshalBegan := time.Now()
	tracedLog, err := seg.log.Marshal()
	marshalMs := float64(time.Since(marshalBegan).Microseconds()) / 1e3
	if err == nil {
		var baseLog []byte
		if baseLog, err = base.log.Marshal(); err == nil && !bytes.Equal(baseLog, tracedLog) {
			err = fmt.Errorf("traced and untraced run logs differ")
		}
	}
	o.check("serve log", err)

	var fe firstErr
	if len(tr.plans) > 0 {
		// One Validate is tens of microseconds: fewer calls make a pass.
		reps := innerReps(len(tr.plans), sz.probeOps/16)
		var ps probeSet
		validate := ps.add(len(tr.plans)*reps, func() {
			for r := 0; r < reps; r++ {
				for _, p := range tr.plans {
					fe.note(sched.Validate(p.g, p.spec, p.plan))
				}
			}
		})
		ps.run(sz)
		o.m["serve.validate_us_per_job"] = ps.ns(validate) / 1e3
	}
	o.check("validate probe", fe.err)

	wall := seg.cost.seconds
	planS := float64(tr.planNs) / 1e9
	planned := float64(sum.Planned)
	var queueDelay float64
	for _, cs := range sum.Classes {
		queueDelay += cs.MeanQueueDelay * float64(cs.Completed)
	}
	allocMetrics(o.m, float64(base.log.Summary.Completed), base.cost)
	o.m["serve.plan_share"] = ratio(planS, wall)
	o.m["serve.pack_us_per_job"] = ratio((wall-planS)*1e6, planned)
	o.m["serve.replans"] = counter(seg.snap, "spear_serve_replans_total")
	o.m["serve.queue_delay_mean_slots"] = ratio(queueDelay, float64(sum.Completed))
	o.m["serve.marshal_ms"] = marshalMs
	o.m["trace.overhead_ratio"] = ratio(wall, base.cost.seconds)
	// Planning is measured and packing is the rest, so the two shares add
	// up to the wall time by construction.
	o.m["attribution.coverage"] = ratio(planS, wall) + ratio(wall-planS, wall)
	return o, tr
}

// probeTraining probes what the sampler does: the stochastic agent playing
// one-slot episodes from each example's initial state.
func probeTraining(in *inputs, sz sizes) (layerProbes, error) {
	agent, err := drl.NewAgent(in.net, in.feat, false)
	if err != nil {
		return layerProbes{}, err
	}
	starts := make([]*simenv.Env, 0, len(in.examples))
	for _, g := range in.examples {
		e, err := simenv.New(g, in.capacity, simenv.Config{Window: in.feat.Window, Mode: simenv.OneSlot})
		if err != nil {
			return layerProbes{}, err
		}
		starts = append(starts, e)
	}
	return probeLayers(in, starts, agent, sz, true)
}

func traceTrain(in *inputs, sz sizes) (outcome, *tracer) {
	var o outcome
	o.m = metrics{"workload.gen_us_per_job": in.genUsPerJob}
	n := sz.tracedEpochs
	base := runEpochs(in, sz, n, 0, nil, nil)
	tm := obs.NewTrainMetrics(nil)
	tr := newTracer(0, fewSpans)
	run := runEpochs(in, sz, n, 0, tm, tr)
	o.add(base.outcome)
	o.add(run.outcome)
	var differ error
	if base.lastMean != run.lastMean { //spear:floateq — the two runs are the same computation and must agree to the bit
		differ = fmt.Errorf("%v, untraced %v", run.lastMean, base.lastMean)
	}
	o.check("traced mean makespan", differ)
	if run.cost.seconds <= 0 {
		return o, tr
	}

	probes, err := probeTraining(in, sz)
	o.check("layer probes", err)
	if err != nil {
		return o, tr
	}
	maps.Copy(o.m, probes.metrics())

	st := tm.Stats()
	epochs := float64(len(run.epochS))
	wallNs := run.cost.seconds * 1e9
	steps := float64(st.Steps)
	trajectories := float64(st.Trajectories)
	placed := trajectories * float64(sz.trainTasks)
	workers := float64(in.trainWorkers)
	timedNs := float64(st.SampleTime + st.BackpropTime + st.ApplyTime)

	// Sampling forwards each step once; backprop forwards and backwards it
	// again in batches of 16. Both phases spread over the worker pool.
	np, cp, rp := probes.nn, probes.cluster, probes.replay
	nnNs := steps * (np.probsNs + np.forwardRowNs + np.backwardRowNs) / workers
	clusterNs := (steps*cp.fitsPerLegal*cp.fitsNs + placed*cp.placeNs + trajectories*cp.cloneNs) / workers
	envNs := (steps*(rp.stepNs+rp.legalNs) + trajectories*rp.cloneNs) / workers
	allocMetrics(o.m, float64(len(base.epochS)*len(in.examples)), base.cost)
	o.m["nn.share"] = ratio(nnNs, wallNs)
	o.m["drl.sample_s"] = ratio(st.SampleTime.Seconds(), epochs)
	o.m["drl.backprop_s"] = ratio(st.BackpropTime.Seconds(), epochs)
	o.m["drl.apply_s"] = ratio(st.ApplyTime.Seconds(), epochs)
	// What the trainer's phase timers hold beyond the network and the
	// environment: trajectory snapshots, baselines, gradient merges, RMSProp.
	o.m["drl.self_share"] = ratio(positive(timedNs-nnNs-envNs), wallNs)
	o.m["simenv.steps"] = steps
	o.m["simenv.clones"] = trajectories
	o.m["simenv.share"] = ratio(positive(envNs-clusterNs), wallNs)
	o.m["cluster.placements"] = placed
	o.m["cluster.share"] = ratio(clusterNs, wallNs)
	o.m["trace.overhead_ratio"] = ratio(run.cost.seconds, base.cost.seconds)
	// The trainer's own phase timers against the wall time of the epochs.
	o.m["attribution.coverage"] = o.m["nn.share"] + o.m["drl.self_share"] + o.m["simenv.share"] + o.m["cluster.share"]
	return o, tr
}
