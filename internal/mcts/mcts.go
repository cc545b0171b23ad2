// Package mcts implements the improved Monte Carlo Tree Search of paper
// §III-C: UCB selection with max-value exploitation and mean tiebreak
// (Eq. 5), a makespan-scaled exploration constant, per-decision budget decay
// max(b_initial/depth, b_min) (Eq. 4), the expansion filters that prune
// superficial actions, and pluggable expansion/rollout policies so that the
// DRL agent can replace the classic random policy (which is how Spear is
// assembled in internal/core). RootParallelism adds root parallelization:
// K independent trees share each decision's budget and their root statistics
// are merged to pick the committed move. TreeParallelism adds tree
// parallelization inside each tree: J workers share one arena-allocated tree
// under one lock, held for selection, expansion and backup and released for
// the rollout, with virtual loss to de-correlate their descents; an optional
// transposition table keyed by the env's canonical state hash lets states
// reached via different schedule orders pool statistics.
package mcts

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"spear/internal/baselines"
	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/obs"
	"spear/internal/sched"
	"spear/internal/simenv"
)

// Expander chooses which untried action to expand next. Classic MCTS picks
// uniformly at random; Spear substitutes the trained policy network, which
// "effectively sorts the actions by how promising they are" (§III-C).
type Expander interface {
	// Name returns a short label for logging and ablation output.
	Name() string
	// Next returns the index into untried of the action to expand. untried
	// is never empty and must not be modified or retained.
	Next(e *simenv.Env, untried []simenv.Action, rng *rand.Rand) (int, error)
}

// RandomExpander is the classic uniformly-random expansion strategy.
type RandomExpander struct{}

var _ Expander = RandomExpander{}

// Name implements Expander.
func (RandomExpander) Name() string { return "random" }

// Next implements Expander.
func (RandomExpander) Next(_ *simenv.Env, untried []simenv.Action, rng *rand.Rand) (int, error) {
	if rng == nil {
		return 0, errors.New("mcts: random expander requires an rng")
	}
	return rng.Intn(len(untried)), nil
}

// Config parameterizes the search. The zero value is completed with the
// paper's defaults by normalize.
type Config struct {
	// InitialBudget is b_initial of Eq. 4: the iteration budget for the
	// first scheduling decision. Default 1000 (§V-A).
	InitialBudget int
	// MinBudget is b_min of Eq. 4: the floor of the decayed budget.
	// Default 100 (§V-B1).
	MinBudget int
	// Rollout simulates from expanded nodes to termination. Default: the
	// uniformly random policy of classic MCTS. Every simulation is one
	// episode on the search worker's simenv.RolloutContext, so a policy that
	// implements simenv.ContextPolicy keeps its buffers (and, for the DRL
	// agent, its memo of answered states) across all of them.
	Rollout simenv.Policy
	// Expand orders unexplored actions during expansion. Default: uniform
	// random. Workers inside one tree expand under the tree lock, one at a
	// time, but with RootParallelism > 1 the trees expand concurrently, so a
	// shared value must then be safe for concurrent use — stateful expanders
	// should set NewExpander instead.
	Expand Expander
	// NewExpander, when non-nil, builds one private Expander per search
	// worker and takes precedence over Expand. Required for expanders that
	// carry per-search state (like the DRL expander's inference buffers)
	// when RootParallelism > 1.
	NewExpander func() Expander
	// Window caps the visible ready tasks (0 = unlimited). Spear sets it to
	// the neural network's input window.
	Window int
	// Seed feeds the search's private random source. Search worker (w, j)
	// derives its own seed from Seed, the tree index w and the in-tree
	// worker index j, so every worker explores differently while the whole
	// search stays deterministic at TreeParallelism = 1.
	Seed int64
	// DisableBudgetDecay spends the full InitialBudget at every decision
	// instead of Eq. 4's max(b_initial/depth, b_min) decay — the ablation
	// arm for the paper's budget-decay design choice.
	DisableBudgetDecay bool
	// RolloutsPerExpansion runs this many independently seeded simulations
	// from each expanded node instead of one, one after another on the
	// search worker's goroutine, and backpropagates each one's value.
	// Default 1; at k times the budget that plays the same number of
	// rollouts in less time (EXPERIMENTS.md, ablation).
	RolloutsPerExpansion int
	// RootParallelism runs this many independent search trees per decision
	// (root parallelization). The decision's Eq. 4 budget is split across
	// the trees, their merged root statistics pick the committed action, and
	// each tree keeps its own chosen subtree across decisions. Default 1,
	// which preserves the exact single-tree search. Values above the legal
	// branching factor mostly add redundancy; GOMAXPROCS is a sensible cap.
	RootParallelism int
	// TreeParallelism runs this many workers inside each search tree (tree
	// parallelization). The workers share the tree under one lock: a worker
	// holds it to select, expand and mark its descent path with virtual
	// losses (reverted on backup, so selection de-correlates), releases it
	// for the rollout, and takes it again for the backup. Composes with
	// RootParallelism: K trees × J workers. Default 1, which is
	// bit-identical to the serial single-tree search (no virtual loss is
	// applied). With J > 1 the iteration interleaving is scheduler-
	// dependent, so results are valid but not run-to-run deterministic.
	TreeParallelism int
	// UseTranspositions keys every created node's statistics block by the
	// environment's canonical state hash, so states reached via different
	// schedule orders share one statistics entry within a Schedule call.
	// Changes search statistics (strictly more informed backups), so it is
	// off by default to preserve the classic per-node search. Each tree's
	// table is bounded at ttEntriesPerBudget × InitialBudget entries.
	UseTranspositions bool
	// Obs, when non-nil, is the registry the scheduler's metrics are
	// registered in, so several schedulers can share (and aggregate into)
	// one exposition endpoint. Nil means a private registry; either way
	// the search counters are pre-allocated at construction and updated
	// once per Schedule call.
	Obs *obs.Registry
}

func (c Config) normalized() Config {
	if c.InitialBudget <= 0 {
		c.InitialBudget = 1000
	}
	if c.MinBudget <= 0 {
		c.MinBudget = 100
	}
	if c.MinBudget > c.InitialBudget {
		c.MinBudget = c.InitialBudget
	}
	if c.Rollout == nil {
		c.Rollout = baselines.Random{}
	}
	if c.Expand == nil {
		c.Expand = RandomExpander{}
	}
	if c.RolloutsPerExpansion <= 0 {
		c.RolloutsPerExpansion = 1
	}
	if c.RootParallelism <= 0 {
		c.RootParallelism = 1
	}
	if c.TreeParallelism <= 0 {
		c.TreeParallelism = 1
	}
	return c
}

// ttEntriesPerBudget sizes each tree's transposition table from the search
// budget: at ttEntriesPerBudget × InitialBudget entries the next miss flushes
// the whole table (deterministic wholesale eviction; see transTable) and
// Stats.TTEvictions counts the dropped entries. That is comfortably above
// what one decision's expansions can insert while still capping a long
// episode's growth.
const ttEntriesPerBudget = 64

// minElapsedSeconds floors the elapsed time used for the SimsPerSec rate:
// trivial jobs on coarse clocks can report zero or near-zero elapsed, which
// would turn the rate into Inf or nonsense.
const minElapsedSeconds = 1e-6

// Stats reports what one Schedule call did, for tests and benchmarks.
type Stats struct {
	// Decisions is the number of committed scheduling decisions.
	Decisions int
	// Iterations is the number of search iterations run, summed across all
	// search workers.
	Iterations int
	// Expansions is the number of nodes added to the search trees.
	Expansions int
	// Rollouts is the number of simulations played to termination.
	Rollouts int64
	// ForcedMoves counts decisions with exactly one legal action, committed
	// without searching.
	ForcedMoves int
	// MaxDepth is the deepest tree position reached, measured from the
	// first decision (committed decisions plus selection descent).
	MaxDepth int
	// PolicyCalls is the number of one-state policy evaluations the
	// expanders and rollout contexts were asked for, and PolicyCacheHits how
	// many of them were answered from a context's memo without a network
	// pass, so PolicyCalls - PolicyCacheHits forwards actually ran. Both stay
	// zero for policies that keep no tally (simenv.PolicyCounter).
	PolicyCalls     int64
	PolicyCacheHits int64
	// RootWorkers is the number of root-parallel trees used per decision.
	RootWorkers int
	// TreeWorkers is the number of shared-tree workers inside each tree.
	TreeWorkers int
	// MergeConflicts counts tree workers whose locally best action lost the
	// merged root vote (only possible with RootWorkers > 1).
	MergeConflicts int64
	// VirtualLossApplied counts virtual-loss marks applied on shared-tree
	// descent paths (only possible with TreeWorkers > 1; every mark is
	// reverted on backup).
	VirtualLossApplied int64
	// TTHits and TTMisses count transposition-table lookups at node
	// creation that found, respectively missed, an existing statistics
	// block (only possible with UseTranspositions).
	TTHits   int64
	TTMisses int64
	// TTEvictions counts transposition-table entries dropped by capacity
	// flushes (only possible with UseTranspositions).
	TTEvictions int64
	// Elapsed is the wall-clock time of the Schedule call.
	Elapsed time.Duration
	// SimsPerSec is Rollouts divided by Elapsed (floored at 1µs, so the
	// rate stays finite on trivially fast calls).
	SimsPerSec float64
	// Cancelled reports whether the call was cut short by its context.
	Cancelled bool
}

// Scheduler runs MCTS to schedule whole jobs. It implements
// sched.Scheduler. A Scheduler is not safe for concurrent Schedule calls:
// besides the stats counters it owns per-worker node arenas, rollout
// contexts and simulation buffers that are reused across iterations.
type Scheduler struct {
	name  string
	cfg   Config
	stats Stats

	// reg holds the scheduler's cumulative metrics: sm, which publish feeds
	// from stats once per call, and sim, the rollout hot path's lock-free
	// counters shared with every env clone.
	reg *obs.Registry
	sm  *obs.SearchMetrics
	sim *obs.SimMetrics

	// greedy is the Tetris packing run behind the exploration constant.
	greedy *baselines.PolicyScheduler

	// workers holds the root-parallel tree workers. Workers persist across
	// Schedule calls — their arenas, expanders, rollout contexts and
	// simulation buffers are reusable — and only the tree and rngs are
	// reset per call.
	workers []*treeWorker
	// wg joins the search goroutines of one search phase.
	wg sync.WaitGroup
	// merged is the reusable per-legal-action buffer of mergeAndChoose.
	merged []rootStat
	// policySeen is the workers' policy tally as of the end of the previous
	// Schedule call: their contexts persist, so a call reports the difference.
	policySeen simenv.PolicyCounters
}

var _ sched.ContextScheduler = (*Scheduler)(nil)

// New returns an MCTS scheduler with the given configuration.
func New(cfg Config) *Scheduler { return NewNamed("MCTS", cfg) }

// NewNamed is New with a custom display name (used by Spear).
func NewNamed(name string, cfg Config) *Scheduler {
	cfg = cfg.normalized()
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Scheduler{
		name:   name,
		cfg:    cfg,
		reg:    reg,
		sm:     obs.NewSearchMetrics(reg),
		sim:    obs.NewSimMetrics(reg),
		greedy: baselines.NewTetrisScheduler(),
	}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return s.name }

// LastStats returns counters from the most recent Schedule call.
func (s *Scheduler) LastStats() Stats { return s.stats }

// Metrics renders the scheduler's cumulative metrics (search, simulator and
// cluster counters, accumulated across every Schedule call).
func (s *Scheduler) Metrics() obs.Snapshot { return s.reg.Snapshot() }

// rootStat is one legal action's root statistics merged across tree
// workers: summed visits and values, max of maxes — exact integer
// arithmetic, like the per-node stats it merges.
type rootStat struct {
	nodeStats
	seen bool
}

// workerSeed derives tree worker w's rng seed from the configured seed: a
// fixed odd multiplier (the 64-bit golden ratio) spreads consecutive worker
// indices across the seed space. Worker 0 keeps the configured seed, so
// RootParallelism = 1 reproduces the single-tree search exactly.
func workerSeed(seed int64, w int) int64 {
	if w == 0 {
		return seed
	}
	return seed + int64(uint64(w)*0x9E3779B97F4A7C15)
}

// simSeed derives the rng seed of shared-tree worker j inside tree w by
// applying workerSeed twice. Worker (w, 0) keeps tree w's seed, so
// TreeParallelism = 1 reproduces the per-tree serial search exactly.
func simSeed(seed int64, w, j int) int64 {
	return workerSeed(workerSeed(seed, w), j)
}

// treeWorker is one root-parallel search tree: the arena holding its nodes
// and statistics, the transposition table (when enabled), and the J
// shared-tree simWorkers that descend it. Nothing here is shared between
// trees except the scheduler's lock-free metric bundles.
type treeWorker struct {
	s    *Scheduler
	sims []*simWorker

	// mu is the tree lock. While a search phase runs, every field below is
	// read and written only with mu held — except that a worker keeps its
	// leaf's *anode for the rollout it plays unlocked, which only reads the
	// leaf's env. Between phases the Schedule goroutine owns them outright.
	mu sync.Mutex
	// remaining is the iteration budget left in the current search phase;
	// workers draw one iteration at a time, so the Eq. 4 budget is
	// conserved exactly.
	remaining int
	root      int32
	arena     nodeArena
	tt        transTable
}

// simWorker is one shared-tree search worker and everything it owns: a
// private rng and expander, the rollout context every one of its simulations
// is played on, and the per-search-phase stat deltas that the scheduler
// aggregates after every decision.
type simWorker struct {
	tw     *treeWorker
	rng    *rand.Rand
	expand Expander

	// rc plays every simulation of this worker and persists across Schedule
	// calls. rolloutRng is the one generator the rollouts of a k > 1
	// simulation share, re-seeded before each.
	rc         *simenv.RolloutContext
	rolloutRng *rand.Rand

	// simValues is simulate's result buffer, one slot per rollout of an
	// expansion.
	simValues []float64

	// Per-search-phase stat deltas and error, reset by searchPhase and
	// aggregated by Scheduler.collect once the phase's goroutines joined.
	iterations int
	expansions int
	rollouts   int64
	maxDepth   int
	vloss      int64
	err        error
}

// worker returns tree worker w with its TreeParallelism simWorkers, growing
// the pool as needed. Must only be called from the Schedule goroutine.
func (s *Scheduler) worker(w int) *treeWorker {
	for len(s.workers) <= w {
		tw := &treeWorker{s: s}
		for j := 0; j < s.cfg.TreeParallelism; j++ {
			sw := &simWorker{
				tw:        tw,
				rng:       rand.New(rand.NewSource(0)), // re-seeded per Schedule call
				rc:        simenv.NewRolloutContext(s.cfg.Rollout),
				simValues: make([]float64, s.cfg.RolloutsPerExpansion),
			}
			if s.cfg.NewExpander != nil {
				sw.expand = s.cfg.NewExpander()
			} else {
				sw.expand = s.cfg.Expand
			}
			if s.cfg.RolloutsPerExpansion > 1 {
				sw.rolloutRng = rand.New(rand.NewSource(0))
			}
			tw.sims = append(tw.sims, sw)
		}
		s.workers = append(s.workers, tw)
	}
	return s.workers[w]
}

// collect folds a tree's search-phase deltas into the call stats and
// returns the first error one of its workers hit.
func (s *Scheduler) collect(tw *treeWorker) error {
	var err error
	for _, sw := range tw.sims {
		s.stats.Iterations += sw.iterations
		s.stats.Expansions += sw.expansions
		s.stats.Rollouts += sw.rollouts
		s.stats.VirtualLossApplied += sw.vloss
		if sw.maxDepth > s.stats.MaxDepth {
			s.stats.MaxDepth = sw.maxDepth
		}
		if err == nil {
			err = sw.err
		}
	}
	return err
}

// publish adds the call's stats to the cumulative search metrics, once per
// Schedule call: the hot path counts into plain per-worker fields only.
func (s *Scheduler) publish() {
	st, m := &s.stats, s.sm
	m.Decisions.Add(int64(st.Decisions))
	m.Iterations.Add(int64(st.Iterations))
	m.Expansions.Add(int64(st.Expansions))
	m.Rollouts.Add(st.Rollouts)
	m.ForcedMoves.Add(int64(st.ForcedMoves))
	m.PolicyCalls.Add(st.PolicyCalls)
	m.PolicyCacheHits.Add(st.PolicyCacheHits)
	m.MergeConflicts.Add(st.MergeConflicts)
	m.VirtualLoss.Add(st.VirtualLossApplied)
	m.TTHits.Add(st.TTHits)
	m.TTMisses.Add(st.TTMisses)
	m.TTEvictions.Add(st.TTEvictions)
	m.SearchTime.Observe(st.Elapsed)
	m.TreeDepth.Set(int64(st.MaxDepth))
	m.RootWorkers.Set(int64(st.RootWorkers))
	m.TreeWorkers.Set(int64(st.TreeWorkers))
}

// policyTally sums the running policy counters of every worker's expander and
// rollout contexts, read once per Schedule call after the workers have joined.
func (s *Scheduler) policyTally() simenv.PolicyCounters {
	var sum simenv.PolicyCounters
	add := func(c simenv.PolicyCounters) {
		sum.Calls += c.Calls
		sum.CacheHits += c.CacheHits
	}
	for _, tw := range s.workers {
		for _, sw := range tw.sims {
			if pc, ok := sw.expand.(simenv.PolicyCounter); ok {
				add(pc.PolicyCounters())
			}
			add(sw.rc.PolicyCounters())
		}
	}
	return sum
}

// Schedule implements sched.Scheduler. It is ScheduleContext with an
// uncancellable background context.
func (s *Scheduler) Schedule(g *dag.Graph, spec cluster.Spec) (*sched.Schedule, error) {
	return s.ScheduleContext(context.Background(), g, spec)
}

// ScheduleContext implements sched.ContextScheduler. The context is checked
// at every decision and search-iteration boundary; on cancellation the
// search stops within one iteration, the partially committed episode is
// completed with the rollout policy, and the resulting incumbent schedule
// is returned together with an error wrapping ctx.Err(). The clock feeds
// Stats.Elapsed/SimsPerSec and the SearchTime timer only; the search
// itself is driven by the seeded worker rngs.
func (s *Scheduler) ScheduleContext(ctx context.Context, g *dag.Graph, spec cluster.Spec) (*sched.Schedule, error) {
	began := time.Now()
	K, J := s.cfg.RootParallelism, s.cfg.TreeParallelism
	s.stats = Stats{RootWorkers: K, TreeWorkers: J}
	defer func() {
		for w := 0; w < K && w < len(s.workers); w++ {
			tt := &s.workers[w].tt
			s.stats.TTHits += tt.hits
			s.stats.TTMisses += tt.misses
			s.stats.TTEvictions += tt.evictions
			tt.hits, tt.misses, tt.evictions = 0, 0, 0
		}
		tally := s.policyTally()
		s.stats.PolicyCalls = tally.Calls - s.policySeen.Calls
		s.stats.PolicyCacheHits = tally.CacheHits - s.policySeen.CacheHits
		s.policySeen = tally
		s.stats.Elapsed = time.Since(began)
		secs := s.stats.Elapsed.Seconds()
		if secs < minElapsedSeconds {
			secs = minElapsedSeconds
		}
		s.stats.SimsPerSec = float64(s.stats.Rollouts) / secs
		s.publish()
	}()

	env, err := simenv.NewCluster(g, spec, simenv.Config{Window: s.cfg.Window, Mode: simenv.NextCompletion, Metrics: s.sim})
	if err != nil {
		return nil, fmt.Errorf("mcts: %w", err)
	}

	c, err := s.explorationConstant(g, spec)
	if err != nil {
		return nil, err
	}

	// Reset the tree workers for this call: worker 0 owns the base episode,
	// the others clone it (clones share the metric bundle, not state). The
	// arenas keep their chunk storage and per-slot buffers from earlier
	// calls, so warm calls rebuild their trees without allocating.
	for w := 0; w < K; w++ {
		tw := s.worker(w)
		tw.arena.reset()
		if s.cfg.UseTranspositions {
			tw.tt.reset(ttEntriesPerBudget * s.cfg.InitialBudget)
		}
		for j, sw := range tw.sims {
			sw.rng.Seed(simSeed(s.cfg.Seed, w, j))
		}
		wenv := env
		if w > 0 {
			wenv = env.Clone()
		}
		tw.root = tw.newNode(wenv, nilNode, 0)
	}
	w0 := s.workers[0]

	depth := 0
	for !w0.arena.node(w0.root).env.Done() {
		if ctx.Err() != nil {
			return s.finishCancelled(ctx)
		}
		depth++
		s.stats.Decisions++
		if depth > s.stats.MaxDepth {
			s.stats.MaxDepth = depth
		}

		legal := w0.arena.node(w0.root).env.LegalActions()
		if len(legal) == 0 {
			return nil, fmt.Errorf("mcts: no legal actions at decision %d", depth)
		}
		var chosen simenv.Action
		if len(legal) == 1 {
			// Forced move: skip the search entirely.
			chosen = legal[0]
			s.stats.ForcedMoves++
		} else {
			budget := s.cfg.InitialBudget
			if !s.cfg.DisableBudgetDecay {
				budget = s.cfg.InitialBudget / depth
				if budget < s.cfg.MinBudget {
					budget = s.cfg.MinBudget
				}
			}
			if err := s.searchPhase(ctx, budget, depth, c); err != nil {
				return nil, err
			}
			if K == 1 {
				// Single tree: pick among the root's children directly,
				// preserving the classic creation-order tiebreak.
				next := w0.bestRootChild()
				if next == nilNode {
					// Cancelled before the first expansion of this decision.
					return s.finishCancelled(ctx)
				}
				chosen = w0.arena.node(next).action
			} else {
				var ok bool
				if chosen, ok = s.mergeAndChoose(legal); !ok {
					return s.finishCancelled(ctx)
				}
			}
		}
		// Commit the move in every tree: the chosen child becomes that
		// tree's new root (created on the spot if this tree never tried it —
		// bookkeeping, not an expansion), and the rest of the old tree goes
		// back to the arena freelist for the next decision to reuse.
		for w := 0; w < K; w++ {
			if err := s.workers[w].commit(chosen); err != nil {
				return nil, err
			}
		}
	}

	return w0.arena.node(w0.root).env.Schedule(s.name)
}

// bestRootChild returns the root child with the best committed-move
// statistics (max value, mean tiebreak), scanning the sibling chain in
// creation order; nilNode when the root has no children.
func (tw *treeWorker) bestRootChild() int32 {
	ar := &tw.arena
	best := ar.node(tw.root).first
	if best == nilNode {
		return nilNode
	}
	for ch := ar.node(best).next; ch != nilNode; ch = ar.node(ch).next {
		if ar.nstats(ar.node(ch).stats).better(ar.nstats(ar.node(best).stats)) {
			best = ch
		}
	}
	return best
}

// commit makes the chosen action's child this tree's new root and recycles
// every other node of the old tree.
func (tw *treeWorker) commit(chosen simenv.Action) error {
	ar := &tw.arena
	next, err := tw.commitChild(chosen)
	if err != nil {
		return err
	}
	oldRoot := tw.root
	for ch := ar.node(oldRoot).first; ch != nilNode; {
		nx := ar.node(ch).next
		if ch != next {
			ar.releaseSubtree(ch)
		}
		ch = nx
	}
	ar.release(oldRoot)
	ar.node(next).parent = nilNode
	tw.root = next
	return nil
}

// commitChild returns the root's child for the committed action, creating
// it as a bookkeeping node (not an expansion) when this tree never tried
// the action.
func (tw *treeWorker) commitChild(a simenv.Action) (int32, error) {
	ar := &tw.arena
	root := ar.node(tw.root)
	for ch := root.first; ch != nilNode; ch = ar.node(ch).next {
		if ar.node(ch).action == a {
			return ch, nil
		}
	}
	// Drop a from untried if present.
	for i, u := range root.untried {
		if u == a {
			root.untried = root.untried[:i+copy(root.untried[i:], root.untried[i+1:])]
			break
		}
	}
	return tw.newChild(tw.root, a)
}

// newNode builds a node around an existing env (the root of a tree) in a
// fresh arena slot.
func (tw *treeWorker) newNode(env *simenv.Env, parent int32, action simenv.Action) int32 {
	idx := tw.arena.alloc(tw.s.cfg.UseTranspositions)
	tw.fill(idx, env, parent, action)
	return idx
}

// fill initializes a freshly allocated slot around env: its links, its
// untried actions and, with transpositions on, its shared statistics block.
func (tw *treeWorker) fill(idx int32, env *simenv.Env, parent int32, action simenv.Action) {
	n := tw.arena.node(idx)
	n.env = env
	n.action = action
	n.parent = parent
	n.untried = env.LegalActionsInto(n.untried[:0])
	if tw.s.cfg.UseTranspositions {
		n.stats = tw.tt.lookupOrCreate(env.StateHash(), &tw.arena)
	}
}

// newChild creates the child of parent reached by action — cloning the
// parent's env into the slot's recycled env, stepping it, and linking the
// node at the tail of the parent's sibling chain (creation order, which
// selection and the committed-move choice use as tiebreak order). The
// action must already be removed from the parent's untried list. If the
// step fails the slot goes straight back to the freelist.
func (tw *treeWorker) newChild(pIdx int32, action simenv.Action) (int32, error) {
	ar := &tw.arena
	idx := ar.alloc(tw.s.cfg.UseTranspositions)
	n := ar.node(idx)
	n.env = ar.node(pIdx).env.CloneInto(n.env)
	if err := n.env.Step(action); err != nil {
		ar.release(idx)
		return nilNode, err
	}
	tw.fill(idx, n.env, pIdx, action)
	p := ar.node(pIdx)
	if p.last != nilNode {
		ar.node(p.last).next = idx
	} else {
		p.first = idx
	}
	p.last = idx
	return idx, nil
}

// searchPhase runs one decision's search on every tree worker, splitting
// the Eq. 4 budget: each tree gets budget/K iterations and the first
// budget%K trees one more, so the total spent equals the single-tree
// budget. Inside a tree, J workers draw iterations from the tree's share
// until it is spent. The Schedule goroutine plays worker (0, 0) itself and
// every other worker runs in its own goroutine, so the serial search (K = J
// = 1) starts none; trees are fully independent, and workers inside a tree
// meet only at its lock.
func (s *Scheduler) searchPhase(ctx context.Context, budget, rootDepth int, c float64) error {
	K := s.cfg.RootParallelism
	for w := 0; w < K; w++ {
		tw := s.workers[w]
		tw.remaining = budget / K
		if w < budget%K {
			tw.remaining++
		}
		for j, sw := range tw.sims {
			sw.iterations, sw.expansions, sw.rollouts, sw.maxDepth, sw.vloss, sw.err = 0, 0, 0, 0, 0, nil
			if w > 0 || j > 0 {
				s.wg.Add(1)
				go func(sw *simWorker) {
					defer s.wg.Done()
					sw.err = sw.search(ctx, rootDepth, c)
				}(sw)
			}
		}
	}
	sw := s.workers[0].sims[0]
	sw.err = sw.search(ctx, rootDepth, c)
	s.wg.Wait()
	var err error
	for _, tw := range s.workers[:K] {
		if werr := s.collect(tw); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// search runs iterations until the tree's phase budget is spent, drawing
// each one from tw.remaining under the tree lock. An iteration holds the
// lock for selection and expansion, plays the leaf's rollouts unlocked and
// takes the lock again for the backup. ctx is checked once per iteration;
// on cancellation the search stops early and returns nil, leaving whatever
// tree was built for the caller to harvest.
func (sw *simWorker) search(ctx context.Context, rootDepth int, c float64) error {
	tw := sw.tw
	for {
		if ctx.Err() != nil {
			return nil
		}
		tw.mu.Lock()
		if tw.remaining == 0 {
			tw.mu.Unlock()
			return nil
		}
		tw.remaining--
		leaf, n, err := sw.descend(rootDepth, c)
		tw.mu.Unlock()
		if err != nil {
			return err
		}
		// Simulation: roll out to termination with the configured policy,
		// RolloutsPerExpansion times. The rollouts only read the leaf's env,
		// which nothing writes during a search phase, and the slot itself
		// never moves.
		values, err := sw.simulate(n, sw.rng)
		if err != nil {
			return err
		}
		if !n.env.Done() {
			sw.rollouts += int64(len(values))
		}
		tw.mu.Lock()
		tw.backup(leaf, values)
		tw.mu.Unlock()
	}
}

// descend runs the tree half of one iteration with the tree lock held:
// selection through fully expanded nodes, then expansion of the first node
// with an untried action. With TreeParallelism > 1 every node entered on the
// way down is marked with a virtual loss, which backup reverts. It returns
// the leaf to simulate.
func (sw *simWorker) descend(rootDepth int, c float64) (int32, *anode, error) {
	tw := sw.tw
	ar := &tw.arena
	s := tw.s
	sw.iterations++

	nIdx := tw.root
	n := ar.node(nIdx)
	depth := rootDepth
	for !n.env.Done() {
		expand := len(n.untried) > 0
		if expand {
			child, err := sw.expandAt(nIdx, n)
			if err != nil {
				return nilNode, nil, err
			}
			sw.expansions++
			nIdx = child
		} else if n.first == nilNode {
			break
		} else {
			// Selection: descend to the UCB-best child.
			nIdx = tw.selectChild(n, c)
		}
		n = ar.node(nIdx)
		depth++
		if s.cfg.TreeParallelism > 1 {
			sw.applyVloss(n)
		}
		if expand {
			break
		}
	}
	if depth > sw.maxDepth {
		sw.maxDepth = depth
	}
	return nIdx, n, nil
}

// expandAt picks one untried action of n with the expander, removes it from
// the untried list and creates the child.
func (sw *simWorker) expandAt(nIdx int32, n *anode) (int32, error) {
	idx, err := sw.expand.Next(n.env, n.untried, sw.rng)
	if err != nil {
		return nilNode, fmt.Errorf("mcts: expander %s: %w", sw.expand.Name(), err)
	}
	if idx < 0 || idx >= len(n.untried) {
		return nilNode, fmt.Errorf("mcts: expander %s returned index %d of %d", sw.expand.Name(), idx, len(n.untried))
	}
	action := n.untried[idx]
	n.untried = n.untried[:idx+copy(n.untried[idx:], n.untried[idx+1:])]
	return sw.tw.newChild(nIdx, action)
}

// applyVloss marks one descent step with a virtual loss, discouraging the
// other shared-tree workers from piling onto the same path until the
// backup reverts the mark.
func (sw *simWorker) applyVloss(n *anode) {
	sw.tw.arena.nstats(n.stats).vloss++
	sw.vloss++
}

// selectChild returns the UCB-best child of n, which has at least one,
// scanning the sibling chain in creation order (strict > keeps the
// first-created child on ties, the classic tiebreak).
func (tw *treeWorker) selectChild(n *anode, c float64) int32 {
	ar := &tw.arena
	pst := ar.nstats(n.stats)
	parentEff := pst.visits + pst.vloss
	best := n.first
	bestScore := ar.nstats(ar.node(best).stats).ucb(c, parentEff)
	for ch := ar.node(best).next; ch != nilNode; ch = ar.node(ch).next {
		if score := ar.nstats(ar.node(ch).stats).ucb(c, parentEff); score > bestScore {
			best, bestScore = ch, score
		}
	}
	return best
}

// backup folds the simulation values into every node from nIdx up to the
// root (unit-scale fixed point is exact — values are negated integer
// makespans) and, with virtual losses on, reverts the one mark per node
// entered on the descent (every path node except the root).
func (tw *treeWorker) backup(nIdx int32, values []float64) {
	ar := &tw.arena
	vlossOn := tw.s.cfg.TreeParallelism > 1
	for cur := nIdx; cur != nilNode; {
		n := ar.node(cur)
		st := ar.nstats(n.stats)
		for _, v := range values {
			st.add(int64(v))
		}
		if vlossOn && cur != tw.root {
			st.vloss--
		}
		cur = n.parent
	}
}

// mergeAndChoose merges the root-child statistics of every tree worker per
// legal action (summed visits and values, max of maxes) and picks the
// committed move with the max-value/mean-tiebreak rule, iterating legal in
// order. It also counts merge conflicts: workers whose local best action
// lost the merged vote. Returns false if no tree expanded anything.
func (s *Scheduler) mergeAndChoose(legal []simenv.Action) (simenv.Action, bool) {
	K := s.cfg.RootParallelism
	if cap(s.merged) < len(legal) {
		s.merged = make([]rootStat, len(legal))
	}
	merged := s.merged[:len(legal)]
	for i := range merged {
		merged[i] = rootStat{nodeStats: nodeStats{max: unvisitedMax}}
	}
	for _, tw := range s.workers[:K] {
		ar := &tw.arena
		for ch := ar.node(tw.root).first; ch != nilNode; ch = ar.node(ch).next {
			cn := ar.node(ch)
			st := ar.nstats(cn.stats)
			for i, a := range legal {
				if a == cn.action {
					m := &merged[i]
					m.seen = true
					m.visits += st.visits
					m.sum += st.sum
					if st.max > m.max {
						m.max = st.max
					}
					break
				}
			}
		}
	}
	best := -1
	for i := range merged {
		if !merged[i].seen {
			continue
		}
		if best < 0 || merged[i].better(&merged[best].nodeStats) {
			best = i
		}
	}
	if best < 0 {
		return 0, false
	}
	chosen := legal[best]
	for _, tw := range s.workers[:K] {
		local := tw.bestRootChild()
		if local != nilNode && tw.arena.node(local).action != chosen {
			s.stats.MergeConflicts++
		}
	}
	return chosen, true
}

// finishCancelled completes a cancelled search: the episode committed so
// far is played to termination by worker (0, 0) — its rollout context, so
// the policy calls reach Stats.PolicyCalls, and its rng — yielding the best
// incumbent schedule reachable without further search, and the schedule is
// returned together with an error wrapping ctx.Err().
func (s *Scheduler) finishCancelled(ctx context.Context) (*sched.Schedule, error) {
	s.stats.Cancelled = true
	w0 := s.workers[0]
	sw := w0.sims[0]
	e := w0.arena.node(w0.root).env.Clone()
	if !e.Done() {
		if _, err := sw.rc.Rollout(e, sw.rng); err != nil {
			return nil, fmt.Errorf("mcts: completing cancelled search: %w", err)
		}
	}
	out, err := e.Schedule(s.name)
	if err != nil {
		return nil, err
	}
	return out, fmt.Errorf("mcts: search cancelled after %d decisions: %w", s.stats.Decisions, ctx.Err())
}

// explorationScale multiplies the greedy-packing makespan estimate to form
// the UCB exploration constant c (§IV: "we scale it by an estimate of the
// makespan produced by ... a greedy packing algorithm").
const explorationScale = 0.1

// explorationConstant estimates the job makespan with a greedy packing run
// (Tetris) and scales it by explorationScale.
func (s *Scheduler) explorationConstant(g *dag.Graph, spec cluster.Spec) (float64, error) {
	est, err := s.greedy.Schedule(g, spec)
	if err != nil {
		return 0, fmt.Errorf("mcts: greedy estimate: %w", err)
	}
	return explorationScale * float64(est.Makespan), nil
}

// simulate estimates node n's value with one or more rollouts, returning one
// negative-makespan value per simulation. The returned slice is owned by the
// sim worker and valid until its next simulate call. A terminal node's
// makespan is exact, so it is reported once per configured simulation — with
// RolloutsPerExpansion = k, a terminal leaf must carry the same backup
// weight (k visits) as an expanded leaf, or terminal values are diluted
// k-fold in every ancestor's mean. A multi-rollout simulation draws one seed
// per rollout from rng and plays them in order on the worker's one rollout
// context, re-seeding the worker's rollout generator before each: rollout i
// draws exactly what rand.New(rand.NewSource(seed i)) would.
func (sw *simWorker) simulate(n *anode, rng *rand.Rand) ([]float64, error) {
	values := sw.simValues
	if n.env.Done() {
		exact := -float64(n.env.Makespan())
		for i := range values {
			values[i] = exact
		}
		return values, nil
	}
	for i := range values {
		r := rng
		if len(values) > 1 {
			r = sw.rolloutRng
			r.Seed(rng.Int63())
		}
		makespan, err := sw.rc.RolloutFrom(n.env, r)
		if err != nil {
			return nil, fmt.Errorf("mcts: rollout %s: %w", sw.tw.s.cfg.Rollout.Name(), err)
		}
		values[i] = -float64(makespan)
	}
	return values, nil
}
