package experiments

import (
	"fmt"
	"io"
	"strings"

	"spear/internal/drl"
	"spear/internal/mcts"
	"spear/internal/sched"
	"spear/internal/simenv"
	"spear/internal/stats"
)

// AblationResult isolates the contribution of each Spear design choice
// (§III-C/D): DRL-guided expansion, DRL-guided rollouts, the budget decay
// of Eq. 4, and leaf-parallel rollouts.
type AblationResult struct {
	Graphs  int
	Tasks   int
	Budget  int
	Results []AlgorithmResult
}

// Ablation runs every variant at the same tree budget on a shared batch of
// random DAGs.
func (s *Suite) Ablation() (*AblationResult, error) {
	nGraphs, tasks, budget, minBudget := 4, 30, 80, 20
	if s.Full {
		nGraphs, tasks, budget, minBudget = 10, 100, 400, 80
	}
	graphs, capacity, err := s.randomJobs(nGraphs, tasks, 1000)
	if err != nil {
		return nil, err
	}
	if _, err := s.TrainModel(); err != nil {
		return nil, err
	}
	feat := s.features()
	sampler, err := drl.NewAgent(s.Net, feat, false)
	if err != nil {
		return nil, err
	}
	greedy, err := drl.NewAgent(s.Net, feat, true)
	if err != nil {
		return nil, err
	}

	base := mcts.Config{InitialBudget: budget, MinBudget: minBudget, Window: feat.Window, Seed: s.Seed, RootParallelism: s.RootParallelism, TreeParallelism: s.TreeParallelism, Obs: s.Obs}
	variants := []sched.Scheduler{
		mcts.NewNamed("MCTS (random/random)", base),
		mcts.NewNamed("MCTS +DRL expand", withExpand(base, drl.NewExpander(greedy))),
		mcts.NewNamed("MCTS +DRL rollout", withRollout(base, sampler)),
		mcts.NewNamed("Spear (both)", withRollout(withExpand(base, drl.NewExpander(greedy)), sampler)),
		mcts.NewNamed("Spear no-decay", noDecay(withRollout(withExpand(base, drl.NewExpander(greedy)), sampler))),
		mcts.NewNamed("MCTS 4x parallel rollouts", parallelRollouts(base, 4)),
	}
	results, err := runAll(graphs, capacity, variants, s.logf)
	if err != nil {
		return nil, err
	}
	return &AblationResult{Graphs: nGraphs, Tasks: tasks, Budget: budget, Results: results}, nil
}

func withExpand(c mcts.Config, e mcts.Expander) mcts.Config { c.Expand = e; return c }

func withRollout(c mcts.Config, p simenv.Policy) mcts.Config { c.Rollout = p; return c }

func noDecay(c mcts.Config) mcts.Config { c.DisableBudgetDecay = true; return c }

func parallelRollouts(c mcts.Config, k int) mcts.Config { c.RolloutsPerExpansion = k; return c }

// String renders the ablation table.
func (r *AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — design-choice isolation at budget %d on %d x %d-task DAGs\n", r.Budget, r.Graphs, r.Tasks)
	tabulate(&b, func(w io.Writer) {
		fmt.Fprintln(w, "variant\tavg makespan\tavg time")
		for _, ar := range r.Results {
			mean, _ := stats.Mean(ar.Makespans) //spear:ignoreerr(samples are non-empty by construction)
			var sumMS float64
			for _, d := range ar.Elapsed {
				sumMS += float64(d.Microseconds()) / 1000
			}
			fmt.Fprintf(w, "%s\t%.1f\t%.0fms\n", ar.Name, mean, sumMS/float64(len(ar.Elapsed)))
		}
	})
	return b.String()
}
