package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"spear/internal/core"
	"spear/internal/dag"
	"spear/internal/drl"
	"spear/internal/nn"
	"spear/internal/resource"
	"spear/internal/workload"
)

// Fixed seeds of the program under test. Only the inputs follow -seed; the
// model, the search and the trainer never learn which seed made them.
const (
	modelSeed  = 2019
	searchSeed = 1
	trainSeed  = 7
)

// sizes holds every count the benchmark uses. Shapes (network, budgets,
// window, arrival mix, machine counts) are constants of the workloads; only
// counts live here, so that -smoke can shrink them.
type sizes struct {
	// Set-up: the policy is built from scratch because models/policy.gob
	// does not decode (README.md, known defects).
	setupRepeats   int
	trainJobs      int
	trainTasks     int
	pretrainEpochs int
	setupRollouts  int

	dagTasks int // tasks per search DAG
	dagPool  int // DAGs generated; the search workloads cycle through them

	tracedSpearJobs int
	tracedMCTSJobs  int

	serveHorizon int64 // slots per serving segment

	reinforceRollouts int
	tracedEpochs      int

	probeStates   int // states captured for the layer probes
	probePasses   int // passes over them; the median pass is reported
	probeOps      int // least calls one timed pass of a nanosecond-scale probe makes
	probeBudget   time.Duration
	rolloutStates int // captured states the rollout probes start from
}

// fullSizes were timed on a 2-core shared box: set-up ≈ 1.4 s, one Spear
// job ≈ 8-11 s, one pure-MCTS job ≈ 0.25 s (0.45 s on four machines), one
// serving segment ≈ 0.45 s, one REINFORCE epoch ≈ 3 s.
var fullSizes = sizes{
	setupRepeats:      3,
	trainJobs:         16,
	trainTasks:        25,
	pretrainEpochs:    4,
	setupRollouts:     2,
	dagTasks:          100,
	dagPool:           128,
	tracedSpearJobs:   1,
	tracedMCTSJobs:    10,
	serveHorizon:      200_000,
	reinforceRollouts: 20,
	tracedEpochs:      2,
	probeStates:       256,
	probePasses:       5,
	probeOps:          1 << 14,
	probeBudget:       60 * time.Millisecond,
	rolloutStates:     64,
}

// smokeSizes finish the whole suite in a few seconds. The DAGs shrink too:
// one 100-task Spear job alone takes longer than the smoke budget.
var smokeSizes = sizes{
	setupRepeats:      1,
	trainJobs:         4,
	trainTasks:        10,
	pretrainEpochs:    1,
	setupRollouts:     2,
	dagTasks:          10,
	dagPool:           8,
	tracedSpearJobs:   1,
	tracedMCTSJobs:    2,
	serveHorizon:      20_000,
	reinforceRollouts: 4,
	tracedEpochs:      1,
	probeStates:       16,
	probePasses:       3,
	probeOps:          1 << 9,
	probeBudget:       time.Millisecond,
	rolloutStates:     8,
}

// inputs is everything set-up hands to the workloads.
type inputs struct {
	net      *nn.Network
	feat     drl.Features
	capacity resource.Vector
	dags     []*dag.Graph // random layered DAGs for the three search workloads
	examples []*dag.Graph // training examples for train_reinforce
	// serveSeed seeds the serving run's own arrival and template streams.
	serveSeed int64

	setupS       float64 // median wall time of one set-up
	genUsPerJob  float64 // workload.RandomDAG time per generated DAG
	trainWorkers int
}

// setUp builds the policy network and generates every workload's inputs,
// sz.setupRepeats times over, and reports the median wall time: set-up is
// a gated metric, so that work moved out of the measured phase shows.
func setUp(seed int64, sz sizes) (*inputs, error) {
	var in *inputs
	walls := make([]float64, 0, sz.setupRepeats)
	for i := 0; i < sz.setupRepeats; i++ {
		began := time.Now()
		next, err := setUpOnce(seed, sz)
		if err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(began).Seconds())
		in = next
	}
	in.setupS = median(walls)
	return in, nil
}

func setUpOnce(seed int64, sz sizes) (*inputs, error) {
	feat := drl.DefaultFeatures()
	net, _, capacity, err := core.BuildModel(core.ModelConfig{
		Feat:         feat,
		TrainJobs:    sz.trainJobs,
		TasksPerJob:  sz.trainTasks,
		PretrainCfg:  drl.PretrainConfig{Epochs: sz.pretrainEpochs},
		ReinforceCfg: drl.TrainConfig{Epochs: 1, Rollouts: sz.setupRollouts},
		Seed:         modelSeed,
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: build model: %w", err)
	}

	rng := rand.New(rand.NewSource(seed))
	dcfg := workload.DefaultRandomDAGConfig()
	dcfg.NumTasks = sz.dagTasks
	genBegan := time.Now()
	dags, err := workload.RandomBatch(rng, dcfg, sz.dagPool)
	if err != nil {
		return nil, fmt.Errorf("set-up: search DAGs: %w", err)
	}
	genUs := float64(time.Since(genBegan).Microseconds()) / float64(sz.dagPool)

	ecfg := workload.DefaultRandomDAGConfig()
	ecfg.NumTasks = sz.trainTasks
	examples, err := workload.RandomBatch(rng, ecfg, sz.trainJobs)
	if err != nil {
		return nil, fmt.Errorf("set-up: training examples: %w", err)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > 2 {
		workers = 2
	}
	return &inputs{
		net:          net,
		feat:         feat,
		capacity:     capacity,
		dags:         dags,
		examples:     examples,
		serveSeed:    rng.Int63(),
		genUsPerJob:  genUs,
		trainWorkers: workers,
	}, nil
}
