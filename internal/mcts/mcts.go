// Package mcts implements the improved Monte Carlo Tree Search of paper
// §III-C: UCB selection with max-value exploitation and mean tiebreak
// (Eq. 5), a makespan-scaled exploration constant, per-decision budget decay
// max(b_initial/depth, b_min) (Eq. 4), the expansion filters that prune
// superficial actions, and pluggable expansion/rollout policies so that the
// DRL agent can replace the classic random policy (which is how Spear is
// assembled in internal/core). RootParallelism adds root parallelization:
// K independent trees share each decision's budget and their root statistics
// are merged to pick the committed move. TreeParallelism adds tree
// parallelization inside each tree: J workers descend one shared,
// arena-allocated tree with atomic statistics, virtual loss to de-correlate
// their descents, and per-node expansion latches; an optional transposition
// table keyed by the env's canonical state hash lets states reached via
// different schedule orders pool statistics.
package mcts

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
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
	// ExplorationScale multiplies the greedy-packing makespan estimate to
	// form the UCB exploration constant c (§IV: "we scale it by an estimate
	// of the makespan produced by ... a greedy packing algorithm").
	// Default 0.1.
	ExplorationScale float64
	// Rollout simulates from expanded nodes to termination. Default: the
	// uniformly random policy of classic MCTS. Every simulation is one
	// episode on the search worker's simenv.RolloutContext, so a policy that
	// implements simenv.ContextPolicy keeps its buffers (and, for the DRL
	// agent, its memo of answered states) across all of them.
	Rollout simenv.Policy
	// Expand orders unexplored actions during expansion. Default: uniform
	// random. With RootParallelism or TreeParallelism > 1 every search
	// worker shares this value, so it must be safe for concurrent use —
	// stateful expanders should set NewExpander instead.
	Expand Expander
	// NewExpander, when non-nil, builds one private Expander per search
	// worker and takes precedence over Expand. Required for expanders that
	// carry per-search state (like the DRL expander's inference buffers)
	// when RootParallelism or TreeParallelism > 1.
	NewExpander func() Expander
	// Window caps the visible ready tasks (0 = unlimited). Spear sets it to
	// the neural network's input window.
	Window int
	// Seed feeds the search's private random source. Search worker (w, j)
	// derives its own seed from Seed, the tree index w and the in-tree
	// worker index j, so every worker explores differently while the whole
	// search stays deterministic at TreeParallelism = 1.
	Seed int64
	// DisableTreeReuse rebuilds the tree from scratch at every decision
	// instead of keeping the chosen child's subtree. Default false.
	DisableTreeReuse bool
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
	// parallelization): the workers descend one shared arena-allocated tree
	// with atomic statistics, mark their descent paths with virtual losses
	// (reverted on backup) so selection de-correlates, and never
	// double-expand thanks to per-node latches. Composes with
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
	// the counters are pre-allocated at construction and updated with
	// single lock-free atomic operations.
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
	if c.ExplorationScale <= 0 {
		c.ExplorationScale = 0.1
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

	// reg holds the scheduler's cumulative metrics; sm and sim are the
	// pre-allocated counter bundles updated on the search and rollout hot
	// paths (lock-free atomics, shared with every env clone and every
	// search worker).
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
	visits int64
	sum    int64
	max    int64
	seen   bool
}

func (r rootStat) mean() float64 {
	if r.visits == 0 {
		return math.Inf(-1)
	}
	return float64(r.sum) / float64(r.visits)
}

// betterStat is the committed-move rule of statsSnap.better over merged
// stats: max value first, mean tiebreak.
func betterStat(a, b rootStat) bool {
	if a.max != b.max {
		return a.max > b.max
	}
	return a.mean() > b.mean()
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
	// The raw atomic counters lead the struct so they are 64-bit aligned
	// even on 32-bit hosts (Go only guarantees 64-bit alignment of an
	// allocation's first word; spear-vet's align64 check enforces the
	// ordering). remaining is the shared-tree iteration ticket counter of
	// the current search phase (TreeParallelism > 1 only): workers draw
	// tickets until the phase budget is spent, so the Eq. 4 budget is
	// conserved exactly. ttHits/ttMisses accumulate transposition lookups
	// per Schedule call (atomically — lookups happen inside concurrent
	// expansions). The cold fields s/sims/root sit between the counters
	// and the arena so the arena header (mutex + chunk-table pointer, read
	// by every node access) starts a fresh cache line: ticket decrements
	// must not invalidate the line the table pointer lives on.
	remaining int64 //spear:atomic
	ttHits    int64 //spear:atomic
	ttMisses  int64 //spear:atomic

	s     *Scheduler
	sims  []*simWorker
	root  int32
	arena nodeArena
	tt    transTable
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

	// Per-search-phase stat deltas and error, reset by resetPhase and
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

func (tw *treeWorker) resetPhase() {
	for _, sw := range tw.sims {
		sw.iterations, sw.expansions, sw.rollouts, sw.maxDepth, sw.vloss, sw.err = 0, 0, 0, 0, 0, nil
	}
}

// collect folds a tree's search-phase deltas into the call stats.
func (s *Scheduler) collect(tw *treeWorker) {
	for _, sw := range tw.sims {
		s.stats.Iterations += sw.iterations
		s.stats.Expansions += sw.expansions
		s.stats.Rollouts += sw.rollouts
		s.stats.VirtualLossApplied += sw.vloss
		if sw.maxDepth > s.stats.MaxDepth {
			s.stats.MaxDepth = sw.maxDepth
		}
	}
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
//
//spear:timing
func (s *Scheduler) ScheduleContext(ctx context.Context, g *dag.Graph, spec cluster.Spec) (*sched.Schedule, error) {
	began := time.Now()
	K, J := s.cfg.RootParallelism, s.cfg.TreeParallelism
	s.stats = Stats{RootWorkers: K, TreeWorkers: J}
	defer func() {
		for w := 0; w < K && w < len(s.workers); w++ { //spear:nopoll(bounded stats sweep over at most K workers)
			tw := s.workers[w]
			s.stats.TTHits += atomic.LoadInt64(&tw.ttHits)
			s.stats.TTMisses += atomic.LoadInt64(&tw.ttMisses)
			if ev := atomic.LoadInt64(&tw.tt.evictions); ev > 0 {
				s.stats.TTEvictions += ev
				s.sm.TTEvictions.Add(ev)
			}
		}
		tally := s.policyTally()
		s.stats.PolicyCalls = tally.Calls - s.policySeen.Calls
		s.stats.PolicyCacheHits = tally.CacheHits - s.policySeen.CacheHits
		s.policySeen = tally
		s.sm.PolicyCalls.Add(s.stats.PolicyCalls)
		s.sm.PolicyCacheHits.Add(s.stats.PolicyCacheHits)
		s.stats.Elapsed = time.Since(began)
		secs := s.stats.Elapsed.Seconds()
		if secs < minElapsedSeconds {
			secs = minElapsedSeconds
		}
		s.stats.SimsPerSec = float64(s.stats.Rollouts) / secs
		s.sm.SearchTime.Observe(s.stats.Elapsed)
		s.sm.TreeDepth.Set(int64(s.stats.MaxDepth))
		s.sm.RootWorkers.Set(int64(K))
		s.sm.TreeWorkers.Set(int64(J))
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
	for w := 0; w < K; w++ { //spear:nopoll(bounded per-call reset of K tree workers)
		tw := s.worker(w)
		tw.arena.reset()
		if s.cfg.UseTranspositions {
			tw.tt.reset(ttEntriesPerBudget * s.cfg.InitialBudget)
		}
		atomic.StoreInt64(&tw.ttHits, 0)
		atomic.StoreInt64(&tw.ttMisses, 0)
		for j, sw := range tw.sims { //spear:nopoll(bounded rng reseed over the sim workers)
			sw.rng.Seed(simSeed(s.cfg.Seed, w, j))
		}
		wenv := env
		if w > 0 {
			wenv = env.Clone()
		}
		tw.root = tw.newNode(wenv, nilNode, 0)
	}
	w0 := s.workers[0]
	rng := w0.sims[0].rng

	depth := 0
	for !w0.arena.node(w0.root).env.Done() {
		if ctx.Err() != nil {
			return s.finishCancelled(ctx, w0.arena.node(w0.root).env, rng, began)
		}
		depth++
		s.stats.Decisions++
		s.sm.Decisions.Inc()
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
			s.sm.ForcedMoves.Inc()
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
					return s.finishCancelled(ctx, w0.arena.node(w0.root).env, rng, began)
				}
				chosen = w0.arena.node(next).action
			} else {
				var ok bool
				if chosen, ok = s.mergeAndChoose(legal); !ok {
					return s.finishCancelled(ctx, w0.arena.node(w0.root).env, rng, began)
				}
			}
		}
		// Commit the move in every tree: the chosen child becomes that
		// tree's new root (created on the spot if this tree never tried it —
		// bookkeeping, not an expansion), and the rest of the old tree goes
		// back to the arena freelist for the next decision to reuse.
		for w := 0; w < K; w++ { //spear:nopoll(bounded commit across K worker trees)
			if err := s.workers[w].commit(chosen); err != nil {
				return nil, err
			}
		}
	}

	out, err := w0.arena.node(w0.root).env.Schedule(s.name)
	if err != nil {
		return nil, err
	}
	out.Elapsed = time.Since(began)
	return out, nil
}

// bestRootChild returns the root child with the best committed-move
// statistics (max value, mean tiebreak), scanning the sibling chain in
// creation order; nilNode when the root has no children.
func (tw *treeWorker) bestRootChild() int32 {
	ar := &tw.arena
	best := atomic.LoadInt32(&ar.node(tw.root).first)
	if best == nilNode {
		return nilNode
	}
	bestStat := snapStats(ar.nstats(ar.node(best).stats))
	for ch := atomic.LoadInt32(&ar.node(best).next); ch != nilNode; ch = atomic.LoadInt32(&ar.node(ch).next) {
		if st := snapStats(ar.nstats(ar.node(ch).stats)); st.better(bestStat) {
			best, bestStat = ch, st
		}
	}
	return best
}

// commit makes the chosen action's child this tree's new root and recycles
// every other node of the old tree. With DisableTreeReuse the chosen
// child's subtree is recycled too and a fresh root is rebuilt around its
// env (statistics dropped — though a transposition table, which keys on
// state rather than tree position, deliberately retains its entries).
func (tw *treeWorker) commit(chosen simenv.Action) error {
	ar := &tw.arena
	next, err := tw.commitChild(chosen)
	if err != nil {
		return err
	}
	oldRoot := tw.root
	for ch := atomic.LoadInt32(&ar.node(oldRoot).first); ch != nilNode; {
		nx := atomic.LoadInt32(&ar.node(ch).next)
		if ch != next {
			ar.releaseSubtree(ch)
		}
		ch = nx
	}
	ar.release(oldRoot)
	n := ar.node(next)
	n.parent = nilNode
	if tw.s.cfg.DisableTreeReuse {
		env := n.env
		n.env = nil // keep the env alive: it becomes the fresh root's state
		ar.releaseSubtree(next)
		next = tw.newNode(env, nilNode, 0)
	}
	tw.root = next
	return nil
}

// commitChild returns the root's child for the committed action, creating
// it as a bookkeeping node (not an expansion) when this tree never tried
// the action. Runs between search phases, single-threaded.
func (tw *treeWorker) commitChild(a simenv.Action) (int32, error) {
	ar := &tw.arena
	root := ar.node(tw.root)
	for ch := atomic.LoadInt32(&root.first); ch != nilNode; ch = atomic.LoadInt32(&ar.node(ch).next) {
		if ar.node(ch).action == a {
			return ch, nil
		}
	}
	// Drop a from untried if present.
	for i, u := range root.untried {
		if u == a {
			root.untried = root.untried[:i+copy(root.untried[i:], root.untried[i+1:])]
			atomic.StoreInt32(&root.nuntried, int32(len(root.untried)))
			break
		}
	}
	return tw.newChild(tw.root, a)
}

// newNode builds a node around an existing env (the root of a tree or a
// rebuilt root after DisableTreeReuse) in a fresh arena slot.
func (tw *treeWorker) newNode(env *simenv.Env, parent int32, action simenv.Action) int32 {
	ar := &tw.arena
	idx := ar.alloc(tw.s.cfg.UseTranspositions)
	n := ar.node(idx)
	n.env = env
	n.action = action
	n.parent = parent
	n.untried = env.LegalActionsInto(n.untried[:0])
	atomic.StoreInt32(&n.nuntried, int32(len(n.untried)))
	if tw.s.cfg.UseTranspositions {
		sidx, hit := tw.tt.lookupOrCreate(env.StateHash(), ar)
		n.stats = sidx
		tw.countTT(hit)
	}
	return idx
}

// newChild creates the child of parent reached by action — cloning the
// parent's env into the slot's recycled env, stepping it, and linking the
// node at the tail of the parent's sibling chain (creation order, which
// selection and the committed-move choice use as tiebreak order). Callers
// must hold the parent's expansion latch or be the only goroutine touching
// the tree. The action must already be removed from the parent's untried
// list.
func (tw *treeWorker) newChild(pIdx int32, action simenv.Action) (int32, error) {
	ar := &tw.arena
	idx := ar.alloc(tw.s.cfg.UseTranspositions)
	n := ar.node(idx)
	env := ar.node(pIdx).env.CloneInto(n.env)
	if err := env.Step(action); err != nil {
		// Cannot happen for actions drawn from LegalActions; keep the slot
		// leaked rather than racing a release against concurrent allocs.
		return nilNode, err
	}
	n.env = env
	n.action = action
	n.parent = pIdx
	n.untried = env.LegalActionsInto(n.untried[:0])
	atomic.StoreInt32(&n.nuntried, int32(len(n.untried)))
	if tw.s.cfg.UseTranspositions {
		sidx, hit := tw.tt.lookupOrCreate(env.StateHash(), ar)
		n.stats = sidx
		tw.countTT(hit)
	}
	// Publish: the alloc above republished the chunk table before idx could
	// reach anyone, so linking the node is the only release needed.
	p := ar.node(pIdx)
	if last := p.last; last != nilNode {
		atomic.StoreInt32(&ar.node(last).next, idx)
	} else {
		atomic.StoreInt32(&p.first, idx)
	}
	p.last = idx
	return idx, nil
}

// countTT tallies one transposition lookup into the per-call counters and
// the metric bundle.
func (tw *treeWorker) countTT(hit bool) {
	if hit {
		atomic.AddInt64(&tw.ttHits, 1)
		tw.s.sm.TTHits.Inc()
	} else {
		atomic.AddInt64(&tw.ttMisses, 1)
		tw.s.sm.TTMisses.Inc()
	}
}

// searchPhase runs one decision's search on every tree worker, splitting
// the Eq. 4 budget: each tree gets budget/K iterations and the first
// budget%K trees one more, so the total spent equals the single-tree
// budget. Inside a tree, J shared-tree workers draw iteration tickets from
// an atomic counter until the tree's share is spent. With one tree and one
// worker the search runs inline; otherwise each worker runs in its own
// goroutine — trees are fully independent, and workers inside a tree share
// only the arena, the latches and the atomic statistics.
func (s *Scheduler) searchPhase(ctx context.Context, budget, rootDepth int, c float64) error {
	K, J := s.cfg.RootParallelism, s.cfg.TreeParallelism
	if K == 1 && J == 1 {
		tw := s.workers[0]
		tw.resetPhase()
		err := tw.sims[0].searchSerial(ctx, budget, rootDepth, c)
		s.collect(tw)
		return err
	}
	share, extra := budget/K, budget%K
	var wg sync.WaitGroup
	for w := 0; w < K; w++ {
		tw := s.workers[w]
		tw.resetPhase()
		b := share
		if w < extra {
			b++
		}
		if b == 0 {
			continue
		}
		if J == 1 {
			sw := tw.sims[0]
			wg.Add(1)
			go func(sw *simWorker, b int) {
				defer wg.Done()
				sw.err = sw.searchSerial(ctx, b, rootDepth, c)
			}(sw, b)
			continue
		}
		atomic.StoreInt64(&tw.remaining, int64(b))
		for j := 0; j < J; j++ {
			sw := tw.sims[j]
			wg.Add(1)
			go func(sw *simWorker) {
				defer wg.Done()
				sw.err = sw.searchShared(ctx, rootDepth, c)
			}(sw)
		}
	}
	wg.Wait()
	for w := 0; w < K; w++ { //spear:nopoll(bounded error sweep after the join)
		tw := s.workers[w]
		for _, sw := range tw.sims { //spear:nopoll(bounded error sweep after the join)
			if sw.err != nil {
				return sw.err
			}
		}
		s.collect(tw)
	}
	return nil
}

// searchSerial runs exactly budget iterations — the deterministic path for
// TreeParallelism = 1 (with RootParallelism = 1 it runs inline on the
// Schedule goroutine, bit-identical to the classic single-tree search).
// ctx is checked once per iteration; on cancellation the search stops
// early and returns nil, leaving whatever tree was built for the caller to
// harvest.
func (sw *simWorker) searchSerial(ctx context.Context, budget, rootDepth int, c float64) error {
	for iter := 0; iter < budget; iter++ {
		if ctx.Err() != nil {
			return nil
		}
		if err := sw.iterate(rootDepth, c); err != nil {
			return err
		}
	}
	return nil
}

// searchShared draws iteration tickets from the tree's shared budget until
// the phase is spent — the TreeParallelism > 1 path, where J workers run
// this concurrently against one tree.
func (sw *simWorker) searchShared(ctx context.Context, rootDepth int, c float64) error {
	tw := sw.tw
	for atomic.AddInt64(&tw.remaining, -1) >= 0 {
		if ctx.Err() != nil {
			return nil
		}
		if err := sw.iterate(rootDepth, c); err != nil {
			return err
		}
	}
	return nil
}

// iterate runs one search iteration: selection through fully expanded
// nodes, expansion under the node's latch, simulation and backup. With
// TreeParallelism > 1 every node entered on the way down is marked with a
// virtual loss (reverted by backup), and a worker that loses an expansion
// latch race simulates the contended node as-is instead of blocking.
func (sw *simWorker) iterate(rootDepth int, c float64) error {
	tw := sw.tw
	ar := &tw.arena
	s := tw.s
	vlossOn := s.cfg.TreeParallelism > 1
	sw.iterations++
	s.sm.Iterations.Inc()

	nIdx := tw.root
	n := ar.node(nIdx)
	depth := rootDepth
	for !n.env.Done() {
		if atomic.LoadInt32(&n.nuntried) > 0 {
			if !atomic.CompareAndSwapInt32(&n.latch, 0, 1) {
				// Another worker is expanding this node right now; simulate
				// the node as-is rather than wait or double-expand.
				break
			}
			if len(n.untried) == 0 {
				// Raced: the node became fully expanded while we approached.
				atomic.StoreInt32(&n.latch, 0)
				continue
			}
			child, err := sw.expandAt(nIdx, n)
			atomic.StoreInt32(&n.latch, 0)
			if err != nil {
				return err
			}
			sw.expansions++
			s.sm.Expansions.Inc()
			nIdx, n = child, ar.node(child)
			depth++
			if vlossOn {
				sw.applyVloss(n)
			}
			break
		}
		// Selection: descend to the UCB-best child.
		first := atomic.LoadInt32(&n.first)
		if first == nilNode {
			break
		}
		next := tw.selectChild(n, first, c)
		nIdx, n = next, ar.node(next)
		depth++
		if vlossOn {
			sw.applyVloss(n)
		}
	}
	if depth > sw.maxDepth {
		sw.maxDepth = depth
	}
	// Simulation: roll out to termination with the configured policy,
	// RolloutsPerExpansion times.
	values, err := sw.simulate(n, sw.rng)
	if err != nil {
		return err
	}
	if !n.env.Done() {
		k := int64(len(values))
		sw.rollouts += k
		s.sm.Rollouts.Add(k)
	}
	tw.backup(nIdx, values, vlossOn)
	return nil
}

// expandAt picks one untried action of n with the expander, removes it from
// the untried list and creates the child. Callers hold n's expansion latch.
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
	atomic.StoreInt32(&n.nuntried, int32(len(n.untried)))
	return sw.tw.newChild(nIdx, action)
}

// applyVloss marks one descent step with a virtual loss, discouraging the
// other shared-tree workers from piling onto the same path until the
// backup reverts the mark.
//
//spear:noalloc
func (sw *simWorker) applyVloss(n *anode) {
	st := sw.tw.arena.nstats(n.stats)
	atomic.AddInt64(&st.vloss, 1)
	sw.vloss++
	sw.tw.s.sm.VirtualLoss.Inc()
}

// selectChild returns the UCB-best child of n, scanning the sibling chain
// in creation order (strict > keeps the first-created child on ties, the
// classic tiebreak). first is n's already-loaded first child.
//
//spear:noalloc
func (tw *treeWorker) selectChild(n *anode, first int32, c float64) int32 {
	ar := &tw.arena
	pst := ar.nstats(n.stats)
	parentEff := atomic.LoadInt64(&pst.visits) + atomic.LoadInt64(&pst.vloss)
	best := first
	bestScore := ucbScore(ar.nstats(ar.node(first).stats), c, parentEff)
	for ch := atomic.LoadInt32(&ar.node(first).next); ch != nilNode; ch = atomic.LoadInt32(&ar.node(ch).next) {
		if score := ucbScore(ar.nstats(ar.node(ch).stats), c, parentEff); score > bestScore {
			best, bestScore = ch, score
		}
	}
	return best
}

// backup folds the simulation values into every node from nIdx up to the
// root: visits and sums via atomic adds (unit-scale fixed point is exact —
// values are negated integer makespans), max via a CAS loop, and, with
// virtual losses on, one mark reverted per node entered on the descent
// (every path node except the root).
//
//spear:noalloc
func (tw *treeWorker) backup(nIdx int32, values []float64, vlossOn bool) {
	ar := &tw.arena
	for cur := nIdx; cur != nilNode; {
		n := ar.node(cur)
		st := ar.nstats(n.stats)
		for _, v := range values {
			iv := int64(v)
			atomic.AddInt64(&st.visits, 1)
			atomic.AddInt64(&st.sum, iv)
			for {
				m := atomic.LoadInt64(&st.max)
				if iv <= m || atomic.CompareAndSwapInt64(&st.max, m, iv) {
					break
				}
			}
		}
		if vlossOn && cur != tw.root {
			atomic.AddInt64(&st.vloss, -1)
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
		merged[i] = rootStat{max: unvisitedMax}
	}
	for w := 0; w < K; w++ {
		tw := s.workers[w]
		ar := &tw.arena
		for ch := atomic.LoadInt32(&ar.node(tw.root).first); ch != nilNode; ch = atomic.LoadInt32(&ar.node(ch).next) {
			cn := ar.node(ch)
			st := snapStats(ar.nstats(cn.stats))
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
		if best < 0 || betterStat(merged[i], merged[best]) {
			best = i
		}
	}
	if best < 0 {
		return 0, false
	}
	chosen := legal[best]
	for w := 0; w < K; w++ {
		tw := s.workers[w]
		local := tw.bestRootChild()
		if local == nilNode {
			continue
		}
		if tw.arena.node(local).action != chosen {
			s.stats.MergeConflicts++
			s.sm.MergeConflicts.Inc()
		}
	}
	return chosen, true
}

// finishCancelled completes a cancelled search: the episode committed so
// far is played to termination with the rollout policy, yielding the best
// incumbent schedule reachable without further search, and the schedule is
// returned together with an error wrapping ctx.Err().
//
//spear:timing — stamps the incumbent's Elapsed.
func (s *Scheduler) finishCancelled(ctx context.Context, env *simenv.Env, rng *rand.Rand, began time.Time) (*sched.Schedule, error) {
	s.stats.Cancelled = true
	e := env.Clone()
	if !e.Done() {
		if _, err := simenv.Rollout(e, s.cfg.Rollout, rng); err != nil {
			return nil, fmt.Errorf("mcts: completing cancelled search: %w", err)
		}
	}
	out, err := e.Schedule(s.name)
	if err != nil {
		return nil, err
	}
	out.Elapsed = time.Since(began)
	return out, fmt.Errorf("mcts: search cancelled after %d decisions: %w", s.stats.Decisions, ctx.Err())
}

// explorationConstant estimates the job makespan with a greedy packing run
// (Tetris) and scales it per the configuration. The Tetris estimate stamps
// its schedule's Elapsed with the wall clock; only est.Makespan
// (deterministic) feeds the constant.
//
//spear:timing
func (s *Scheduler) explorationConstant(g *dag.Graph, spec cluster.Spec) (float64, error) {
	est, err := s.greedy.Schedule(g, spec)
	if err != nil {
		return 0, fmt.Errorf("mcts: greedy estimate: %w", err)
	}
	return s.cfg.ExplorationScale * float64(est.Makespan), nil
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
