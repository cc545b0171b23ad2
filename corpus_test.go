package spear_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"spear"
	"spear/internal/anneal"
	"spear/internal/baselines"
	"spear/internal/drl"
	"spear/internal/mcts"
	"spear/internal/nn"
	"spear/internal/sched"
	"spear/internal/serve"
	"spear/internal/workload"
	"spear/models"
)

// corpusPath holds one row per pinned output: its name, a tab, then the
// output's fingerprint (a makespan and a placement hash, a SHA-256 of the
// output's bytes, or an error text).
const corpusPath = "testdata/corpus.tsv"

// corpusHeader opens the file with its row formats.
const corpusHeader = `# Outputs pinned bit for bit on amd64; TestOutputCorpusPinned regenerates every row.
# legacy/<run>                        makespan  placement-hash  search counters
# model/<config>                      sha256 of the saved network
# serve/<run>                         sha256 of the run log
# sim/<algorithm>/m<machines>/j<job>  makespan  placement-hash, or the error text
`

// TestOutputCorpusPinned regenerates every output the project promises to
// keep bit for bit — the makespan and placement of every scheduler spear-sim
// offers, the search trees behind the legacy golden runs, trained model
// bytes and serving run logs — and compares each with its row in corpusPath.
// A change that means to move an output re-pins it: the failure names each
// differing row and logs the whole regenerated file, which replaces the old
// one (leading whitespace is ignored, so the log pastes as it stands).
//
// The pins hold on amd64 only. The Go spec lets a compiler fuse x*y + z into
// one rounding, and arm64 does so in pinned code; math.Exp and math.Log are
// architecture-specific assembly as well.
func TestOutputCorpusPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("outputs are pinned on amd64; %s may fuse multiply-adds and has its own math.Exp and math.Log", runtime.GOARCH)
	}
	want, err := readCorpus(corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	c := &corpus{want: want, got: map[string]string{}}
	t.Cleanup(func() { c.finish(t) })
	for _, g := range []struct {
		name string
		run  func(*testing.T, *corpus)
	}{
		{"legacy", corpusLegacy},
		{"model", corpusModels},
		{"serve", corpusServe},
		{"sim", corpusSim},
	} {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			g.run(t, c)
		})
	}
}

// corpus collects the regenerated rows of one TestOutputCorpusPinned run.
type corpus struct {
	want map[string]string

	mu  sync.Mutex
	got map[string]string
}

// readCorpus parses the pinned rows, skipping blank lines and # comments.
func readCorpus(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rows := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("%s: row %q has no tab", path, line)
		}
		if _, dup := rows[name]; dup {
			return nil, fmt.Errorf("%s: row %s appears twice", path, name)
		}
		rows[name] = value
	}
	return rows, sc.Err()
}

// put records one regenerated row and reports it if it differs from its pin.
func (c *corpus) put(t *testing.T, name string, fields ...any) {
	t.Helper()
	vals := make([]string, len(fields))
	for i, f := range fields {
		vals[i] = fmt.Sprint(f)
	}
	value := strings.Join(vals, "\t")
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.got[name]; dup {
		t.Fatalf("row %s generated twice", name)
	}
	c.got[name] = value
	switch pinned, ok := c.want[name]; {
	case !ok:
		t.Errorf("%s: no pinned row (regenerated %q)", name, value)
	case pinned != value:
		t.Errorf("%s: regenerated %q, pinned %q", name, value, pinned)
	}
}

// finish reports pinned rows nothing regenerated and, if any row differed,
// logs the regenerated file.
func (c *corpus) finish(t *testing.T) {
	for name := range c.want {
		if _, ok := c.got[name]; !ok {
			t.Errorf("%s: pinned but not regenerated", name)
		}
	}
	if !t.Failed() {
		return
	}
	names := make([]string, 0, len(c.got))
	for name := range c.got {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(corpusHeader)
	for _, name := range names {
		fmt.Fprintf(&b, "%s\t%s\n", name, c.got[name])
	}
	t.Logf("regenerated %s:\n%s", corpusPath, b.String())
}

// placementHash fingerprints a schedule slot by slot: any reordered,
// shifted or re-placed task changes the hash.
func placementHash(out *sched.Schedule) string {
	h := fnv.New64a()
	for _, p := range out.Placements {
		fmt.Fprintf(h, "%d:%d:%d;", p.Task, p.Start, p.Machine)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// sha is the hex SHA-256 of data.
func sha(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// simSeed, simBudget and simMinBudget are the spear-sim flags of every sim
// row: -seed 7 -budget 30 -min-budget 6.
const (
	simSeed      = 7
	simBudget    = 30
	simMinBudget = 6
)

// simTasks is the job size each spear-sim algorithm is pinned on: search on
// 40-task jobs at small budgets, the exact solver on 10 tasks, the
// baselines on the paper's 100.
var simTasks = map[string]int{"spear": 40, "mcts": 40, "anneal": 40, "optimal": 10}

// simScheduler builds algorithm name as spear-sim's buildScheduler does
// with the sim flags, guiding spear with net.
func simScheduler(t *testing.T, name string, net *spear.Network) spear.Scheduler {
	t.Helper()
	switch name {
	case "spear":
		s, err := spear.NewSpear(net, spear.DefaultFeatures(), spear.SpearConfig{InitialBudget: simBudget, MinBudget: simMinBudget, Seed: simSeed})
		if err != nil {
			t.Fatal(err)
		}
		return s
	case "mcts":
		return spear.NewMCTS(spear.MCTSConfig{InitialBudget: simBudget, MinBudget: simMinBudget, Seed: simSeed})
	case "graphene":
		return spear.NewGraphene()
	case "tetris":
		return spear.NewTetris()
	case "cp":
		return spear.NewCP()
	case "sjf":
		return spear.NewSJF()
	case "random":
		return spear.NewRandom(simSeed)
	case "anneal":
		return spear.NewAnnealing(500, simSeed)
	case "optimal":
		return spear.NewOptimal(0)
	}
	t.Fatalf("no corpus recipe for algorithm %q", name)
	return nil
}

// corpusSim pins `spear-sim -n 2 -seed 7 -budget 30 -min-budget 6` for every
// algorithm on one and four machines: row sim/<algo>/m<machines>/j<job>.
// Spear guides its search with the checked-in policy, whose bytes it pins as
// row model/policy, and refuses multi-machine clusters; that error text is
// pinned too.
func corpusSim(t *testing.T, c *corpus) {
	for _, name := range []string{
		"spear", "mcts", "graphene", "tetris", "cp", "sjf", "random", "anneal", "optimal",
	} {
		t.Run(name, func(t *testing.T) {
			var net *spear.Network
			if name == "spear" {
				var err error
				if net, err = models.Load(""); err != nil {
					t.Fatal(err)
				}
				c.put(t, "model/policy", netSum(t, net))
			}
			tasks := simTasks[name]
			if tasks == 0 {
				tasks = 100
			}
			cfg := spear.DefaultRandomJobConfig()
			cfg.NumTasks = tasks
			jobs, err := spear.RandomJobs(simSeed, cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []int{1, 4} {
				spec := spear.UniformCluster(m, cfg.Capacity())
				s := simScheduler(t, name, net)
				for j, job := range jobs {
					row := fmt.Sprintf("sim/%s/m%d/j%d", name, m, j)
					out, err := s.Schedule(job, spec)
					if err != nil {
						c.put(t, row, "error: "+err.Error())
						continue
					}
					if err := spear.Validate(job, spec, out); err != nil {
						t.Fatalf("%s: %v", row, err)
					}
					c.put(t, row, out.Makespan, placementHash(out))
				}
			}
		})
	}
}

// untrainedAgent is a DRL agent over a freshly initialised network (weights
// seeded with 1) with the five-task window the DRL legacy rows use.
func untrainedAgent(t *testing.T, greedy bool) *drl.Agent {
	t.Helper()
	feat := drl.Features{Window: 5, Horizon: 10, Dims: 2}
	net, err := drl.DefaultNetwork(feat, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	agent, err := drl.NewAgent(net, feat, greedy)
	if err != nil {
		t.Fatal(err)
	}
	return agent
}

// corpusLegacy pins the search over every mcts feature — budget decay on and
// off, CP rollouts, windows, several rollouts per expansion, four machines,
// root parallelism, DRL guidance and the transposition table — to the
// pointer-tree implementation the arena search replaced: the rows were
// captured from it. Each row also holds the search counters: iterations,
// expansions, rollouts, virtual losses (zero without tree parallelism) and
// the transposition table's hits, misses and flushed entries.
func corpusLegacy(t *testing.T, c *corpus) {
	window := 5
	for _, tc := range []struct {
		name      string
		graphSeed int64
		tasks     int
		machines  int
		mk        func(*testing.T) *mcts.Scheduler
	}{
		{"basic-13", 13, 25, 1, func(*testing.T) *mcts.Scheduler {
			return mcts.New(mcts.Config{InitialBudget: 60, MinBudget: 12, Seed: 13})
		}},
		{"basic-42", 42, 30, 1, func(*testing.T) *mcts.Scheduler {
			return mcts.New(mcts.Config{InitialBudget: 80, MinBudget: 16, Seed: 42})
		}},
		{"nodecay-9", 9, 20, 1, func(*testing.T) *mcts.Scheduler {
			return mcts.New(mcts.Config{InitialBudget: 40, MinBudget: 10, Seed: 9, DisableBudgetDecay: true})
		}},
		{"cp-rollout-4", 4, 25, 1, func(*testing.T) *mcts.Scheduler {
			return mcts.New(mcts.Config{InitialBudget: 30, MinBudget: 5, Seed: 4, Rollout: baselines.CP{}})
		}},
		{"window-5", 5, 30, 1, func(*testing.T) *mcts.Scheduler {
			return mcts.New(mcts.Config{InitialBudget: 60, MinBudget: 12, Seed: 5, Window: window})
		}},
		{"leafpar-6", 6, 25, 1, func(*testing.T) *mcts.Scheduler {
			return mcts.New(mcts.Config{InitialBudget: 30, MinBudget: 8, Seed: 6, RolloutsPerExpansion: 4})
		}},
		{"multi-4m-11", 11, 25, 4, func(*testing.T) *mcts.Scheduler {
			return mcts.New(mcts.Config{InitialBudget: 50, MinBudget: 10, Seed: 11})
		}},
		{"rootpar-k2", 21, 25, 1, func(*testing.T) *mcts.Scheduler {
			return mcts.New(mcts.Config{InitialBudget: 60, MinBudget: 12, Seed: 21, RootParallelism: 2})
		}},
		{"rootpar-k4", 21, 25, 1, func(*testing.T) *mcts.Scheduler {
			return mcts.New(mcts.Config{InitialBudget: 60, MinBudget: 12, Seed: 21, RootParallelism: 4})
		}},
		{"drl-guided", 21, 25, 1, func(t *testing.T) *mcts.Scheduler {
			return mcts.NewNamed("Spear", mcts.Config{InitialBudget: 30, MinBudget: 6, Seed: 21,
				Rollout: untrainedAgent(t, false), Expand: drl.NewExpander(untrainedAgent(t, true)), Window: window})
		}},
		{"drl-rollouts-k3", 21, 25, 1, func(t *testing.T) *mcts.Scheduler {
			return mcts.NewNamed("MCTS+DRL rollouts", mcts.Config{InitialBudget: 20, MinBudget: 5, Seed: 22,
				Rollout: untrainedAgent(t, false), Window: window, RolloutsPerExpansion: 3})
		}},
		{"tt-17", 17, 80, 1, func(*testing.T) *mcts.Scheduler {
			return mcts.New(mcts.Config{InitialBudget: 8, MinBudget: 8, Seed: 17, DisableBudgetDecay: true, UseTranspositions: true})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := spear.DefaultRandomJobConfig()
			cfg.NumTasks = tc.tasks
			g, err := spear.RandomJob(tc.graphSeed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := tc.mk(t)
			out, err := s.Schedule(g, spear.UniformCluster(tc.machines, cfg.Capacity()))
			if err != nil {
				t.Fatal(err)
			}
			st := s.LastStats()
			c.put(t, "legacy/"+tc.name, out.Makespan, placementHash(out),
				fmt.Sprintf("it=%d exp=%d roll=%d vloss=%d tt=%d/%d/%d", st.Iterations, st.Expansions, st.Rollouts,
					st.VirtualLossApplied, st.TTHits, st.TTMisses, st.TTEvictions))
		})
	}
}

// netSum returns the SHA-256 of net's saved bytes.
func netSum(t *testing.T, net *spear.Network) string {
	t.Helper()
	var buf bytes.Buffer
	if err := spear.SaveModel(&buf, net); err != nil {
		t.Fatal(err)
	}
	return sha(buf.Bytes())
}

// corpusModels pins the whole training pipeline (imitation, then REINFORCE)
// to bit-identical networks: any change of arithmetic order in nn or drl
// moves a hash (CI retrains models/policy.gob at the paper's recipe and
// compares the bytes). The quick model's hash was
// captured from per-sample forward/backward training, so it also certifies
// that minibatches through the batch kernels accumulate in the same order;
// it is trained with one and with two rollout workers, which must write the
// same bytes.
func corpusModels(t *testing.T, c *corpus) {
	quick := spear.ModelConfig{
		Feat:        spear.Features{Window: 5, Horizon: 10, Dims: 2},
		TrainJobs:   4,
		TasksPerJob: 10,
		PretrainCfg: spear.PretrainConfig{Epochs: 10, Opt: nn.RMSProp{LR: 1e-3, Rho: 0.9, Eps: 1e-8}},
		ReinforceCfg: spear.ReinforceConfig{
			Epochs: 3, Rollouts: 4,
			Opt: nn.RMSProp{LR: 5e-4, Rho: 0.9, Eps: 1e-8},
		},
		Seed: 1,
	}
	sums := map[int]string{}
	for _, workers := range []int{1, 2} {
		quick.ReinforceCfg.Workers = workers
		net, _, _, err := spear.TrainModel(quick, nil)
		if err != nil {
			t.Fatal(err)
		}
		sum := netSum(t, net)
		sums[workers] = sum
		c.put(t, fmt.Sprintf("model/quick/workers%d", workers), sum)
	}
	if sums[1] != sums[2] {
		t.Errorf("one and two rollout workers trained different networks")
	}
}

// mix is a two-class traffic: a Poisson gold class and a bursty Gamma(0.5)
// batch class with the given mean gaps.
func mix(gold, batch float64) []serve.ClassConfig {
	return []serve.ClassConfig{
		{Name: "gold", Arrival: workload.ArrivalConfig{Kind: workload.ArrivalPoisson, Mean: gold}},
		{Name: "batch", Arrival: workload.ArrivalConfig{Kind: workload.ArrivalGamma, Mean: batch, Shape: 0.5}},
	}
}

// cliServe is the config `spear-serve -seed 7 -horizon 20000 -machines m
// -algo algo` runs: the default gold and batch classes, always admit.
func cliServe(algo string, machines int) serve.Config {
	cfg := serve.Config{
		Seed: 7, Horizon: 20000, Algorithm: algo,
		Admission: serve.AdmissionConfig{Policy: serve.PolicyAlways},
		Classes: []serve.ClassConfig{
			{Name: "gold", Tenant: "gold", Arrival: workload.ArrivalConfig{Kind: workload.ArrivalPoisson, Mean: 1000}},
			{Name: "batch", Tenant: "batch", Arrival: workload.ArrivalConfig{Kind: workload.ArrivalGamma, Mean: 1600, Shape: 0.5}},
		},
	}
	if machines > 1 {
		cfg.Machines = machines
	}
	return cfg
}

// serveLog runs cfg and returns the marshalled run log.
func serveLog(t *testing.T, cfg serve.Config, s sched.Scheduler) []byte {
	t.Helper()
	srv, err := serve.New(cfg, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	log, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	data, err := log.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// corpusServe pins the canonical bytes of serving run logs, and checks that
// each log replays to itself as `spear-serve -replay` does. cp_m1 ..
// cp_m1_overloaded were captured before commit packed plans from their
// profile; the last overloads its machine, so the backlog only grows. The
// cli_* rows are what spear-serve writes with -seed 7 -horizon 20000, one
// per name it offers, built as its buildScheduler builds them.
func corpusServe(t *testing.T, c *corpus) {
	schedulers := map[string]func(seed int64) sched.Scheduler{
		"cp":     func(int64) sched.Scheduler { return baselines.NewCPScheduler() },
		"anneal": func(seed int64) sched.Scheduler { return anneal.New(anneal.Config{Iterations: 500, Seed: seed}) },
		"mcts": func(seed int64) sched.Scheduler {
			return mcts.New(mcts.Config{InitialBudget: 200, MinBudget: 20, Seed: seed})
		},
	}
	for _, tc := range []struct {
		name string
		algo string
		cfg  serve.Config
	}{
		{"cp_m1", "cp", serve.Config{Seed: 7, Horizon: 20000, Classes: mix(1000, 1600)}},
		{"cp_m4_dump", "cp", serve.Config{Seed: 3, Horizon: 100000, Machines: 4, DumpSchedules: true, Classes: mix(400, 700)}},
		{"cp_m2_inflight3_weibull", "cp", serve.Config{Seed: 5, Horizon: 50000, Machines: 2, MaxInFlight: 3, Classes: []serve.ClassConfig{
			{Name: "w", Arrival: workload.ArrivalConfig{Kind: workload.ArrivalWeibull, Mean: 300, Shape: 0.7}},
		}}},
		{"cp_m1_overloaded", "cp", serve.Config{Seed: 1, Horizon: 60000, Classes: mix(150, 250)}},
		{"cli_cp_m1", "cp", cliServe("cp", 1)},
		{"cli_cp_m4", "cp", cliServe("cp", 4)},
		{"cli_anneal_m1", "anneal", cliServe("anneal", 1)},
		{"cli_mcts_m4", "mcts", cliServe("mcts", 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := serveLog(t, tc.cfg, schedulers[tc.algo](tc.cfg.Seed))
			c.put(t, "serve/"+tc.name, sha(data))

			recorded, err := serve.LoadRunLog(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if replayed := serveLog(t, recorded.Config, schedulers[tc.algo](recorded.Config.Seed)); !bytes.Equal(replayed, data) {
				t.Errorf("replay diverged from the recorded log (%d vs %d bytes)", len(replayed), len(data))
			}
		})
	}
	// One machine spelled out plans exactly what the zero value plans; only
	// the logged config differs.
	t.Run("machines1", func(t *testing.T) {
		cfg := cliServe("cp", 1)
		cfg.Machines = 1
		srv, err := serve.New(cfg, schedulers["cp"](7), nil)
		if err != nil {
			t.Fatal(err)
		}
		log, err := srv.Run()
		if err != nil {
			t.Fatal(err)
		}
		log.Config.Machines = 0
		data, err := log.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if want := serveLog(t, cliServe("cp", 1), schedulers["cp"](7)); !bytes.Equal(data, want) {
			t.Errorf("Machines: 1 logged %s, Machines: 0 %s", sha(data), sha(want))
		}
	})
}
