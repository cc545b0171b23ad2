package experiments

import (
	"fmt"

	"spear/internal/drl"
	"spear/internal/mcts"
	"spear/internal/sched"
	"spear/internal/simenv"
)

// Ablation isolates the contribution of each Spear design choice
// (§III-C/D) — DRL-guided expansion, DRL-guided rollouts, the budget decay
// of Eq. 4, and several rollouts per expansion — by running every variant at the
// same tree budget on a shared batch of random DAGs.
func (s *Suite) Ablation() (*comparison, error) {
	p := s.params.ablation
	graphs, capacity, err := s.randomJobs(p.graphs, p.tasks, 1000)
	if err != nil {
		return nil, err
	}
	feat := s.params.model.Feat
	sampler, err := drl.NewAgent(s.Net, feat, false)
	if err != nil {
		return nil, err
	}
	greedy, err := drl.NewAgent(s.Net, feat, true)
	if err != nil {
		return nil, err
	}

	base := s.searchConfig(p.budget, p.minBudget)
	base.Window = feat.Window
	variants := []sched.Scheduler{
		mcts.NewNamed("MCTS (random/random)", base),
		mcts.NewNamed("MCTS +DRL expand", withExpand(base, drl.NewExpander(greedy))),
		mcts.NewNamed("MCTS +DRL rollout", withRollout(base, sampler)),
		mcts.NewNamed("Spear (both)", withRollout(withExpand(base, drl.NewExpander(greedy)), sampler)),
		mcts.NewNamed("Spear no-decay", noDecay(withRollout(withExpand(base, drl.NewExpander(greedy)), sampler))),
		mcts.NewNamed("MCTS 4 rollouts/expansion", rolloutsPerExpansion(base, 4)),
	}
	results, err := runAll(graphs, capacity, variants, s.logf)
	if err != nil {
		return nil, err
	}
	return &comparison{Label: "variant", Graphs: p.graphs, Tasks: p.tasks, Budget: p.budget, Results: results}, nil
}

func withExpand(c mcts.Config, e mcts.Expander) mcts.Config { c.Expand = e; return c }

func withRollout(c mcts.Config, p simenv.Policy) mcts.Config { c.Rollout = p; return c }

func noDecay(c mcts.Config) mcts.Config { c.DisableBudgetDecay = true; return c }

func rolloutsPerExpansion(c mcts.Config, k int) mcts.Config { c.RolloutsPerExpansion = k; return c }

// ablationTable renders the ablation comparison.
func ablationTable(r *comparison) string {
	return r.meanTable(fmt.Sprintf("Ablation — design-choice isolation at budget %d on %d x %d-task DAGs\n", r.Budget, r.Graphs, r.Tasks))
}
