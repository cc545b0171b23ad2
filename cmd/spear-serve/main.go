// Command spear-serve runs the online multi-job serving loop: jobs arrive
// on a simulated clock from per-class arrival processes, pass admission
// control, and are planned onto a shared cluster timeline by the chosen
// scheduling algorithm. The run log is a pure function of the seed, so
// re-running a written log reproduces it byte for byte.
//
// Usage:
//
//	spear-serve -seed 7 -horizon 20000 -algo cp -out run.json
//	spear-serve -seed 7 -algo anneal                # annealed plans
//	spear-serve -seed 7 -machines 4 -algo mcts      # searched plans on a 4-machine cluster
//	spear-serve -replay run.json            # re-execute and diff byte-wise
//	spear-serve -seed 7 -admission token-bucket -bucket-cap 4 -bucket-refill 0.05
//	spear-serve -seed 7 -class gold:poisson:120 -class batch:gamma:40:0.4 -metrics
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"spear/internal/anneal"
	"spear/internal/baselines"
	"spear/internal/mcts"
	"spear/internal/obs"
	"spear/internal/profile"
	"spear/internal/sched"
	"spear/internal/serve"
	"spear/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spear-serve:", err)
		os.Exit(1)
	}
}

type classFlags []string

func (c *classFlags) String() string { return strings.Join(*c, ",") }
func (c *classFlags) Set(v string) error {
	*c = append(*c, v)
	return nil
}

// algorithms lists every name -algo accepts, in the order the help prints
// them; buildScheduler has one case per entry. A name stays while it is the
// default or has the lowest mean JCT in some cell of EXPERIMENTS.md's
// "Online ranking" grid, at least 1 % under CP's.
var algorithms = []string{"cp", "anneal", "mcts"}

// run parses the command line args, then serves the run (or replays a log)
// and prints its summary and the -metrics snapshot.
func run(args []string) (err error) {
	fs := flag.NewFlagSet("spear-serve", flag.ExitOnError)
	var classes classFlags
	var (
		seed         = fs.Int64("seed", 1, "run seed; fully determines the run")
		horizon      = fs.Int64("horizon", 20000, "last slot at which jobs may arrive")
		algo         = fs.String("algo", "cp", "scheduling algorithm ("+strings.Join(algorithms, ",")+")")
		admission    = fs.String("admission", "always", "admission policy (always,token-bucket)")
		bucketCap    = fs.Float64("bucket-cap", 8, "token-bucket burst capacity in jobs")
		bucketRefill = fs.Float64("bucket-refill", 0.02, "token-bucket refill rate in jobs per slot")
		maxInFlight  = fs.Int("max-inflight", 0, "max planned-but-unfinished jobs (0 = unbounded)")
		machines     = fs.Int("machines", 1, "number of identical machines in the serving cluster")
		dumpPlans    = fs.Bool("dump-schedules", false, "embed each committed plan's schedule in its plan event")
		out          = fs.String("out", "", "write the run log to this file")
		replay       = fs.String("replay", "", "re-execute the run recorded in this log and diff byte-wise")
		metrics      = fs.Bool("metrics", false, "print a Prometheus-format metrics snapshot after the run")
		quiet        = fs.Bool("quiet", false, "suppress the summary table")
	)
	fs.Var(&classes, "class", "client class as name[@tenant]:kind:mean[:shape] (repeatable; default gold+batch mix)")
	prof := profile.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop(&err)

	if *replay != "" {
		return replayRun(*replay, *metrics)
	}

	if *machines < 1 {
		return fmt.Errorf("machines %d must be >= 1", *machines)
	}
	cfg := serve.Config{
		Seed:          *seed,
		Horizon:       *horizon,
		MaxInFlight:   *maxInFlight,
		Algorithm:     *algo,
		Admission:     serve.AdmissionConfig{Policy: *admission, BucketCap: *bucketCap, RefillPerSlot: *bucketRefill},
		DumpSchedules: *dumpPlans,
	}
	if *machines > 1 {
		// A 1-machine cluster is the config's zero value; leaving it absent
		// keeps old run logs byte-identical.
		cfg.Machines = *machines
	}
	if cfg.Admission.Policy == serve.PolicyAlways {
		cfg.Admission.BucketCap, cfg.Admission.RefillPerSlot = 0, 0
	}
	if cfg.Classes, err = parseClasses(classes); err != nil {
		return err
	}

	scheduler, err := buildScheduler(cfg)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	srv, err := serve.New(cfg, scheduler, reg)
	if err != nil {
		return err
	}
	log, err := srv.Run()
	if err != nil {
		return err
	}
	if *out != "" {
		data, err := log.Marshal()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
	}
	if !*quiet {
		printSummary(log)
	}
	if *metrics {
		fmt.Println()
		if err := reg.Snapshot().WritePrometheus(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// replayRun re-executes the run embedded in the log at path and compares
// the two logs byte for byte.
func replayRun(path string, metrics bool) error {
	orig, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	log, err := serve.LoadRunLog(bytes.NewReader(orig))
	if err != nil {
		return err
	}
	scheduler, err := buildScheduler(log.Config)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	replayed, err := serve.Replay(log.Config, scheduler, reg)
	if err != nil {
		return err
	}
	data, err := replayed.Marshal()
	if err != nil {
		return err
	}
	if !bytes.Equal(orig, data) {
		return fmt.Errorf("replay of %s diverged from the recorded log (%d vs %d bytes)", path, len(data), len(orig))
	}
	fmt.Printf("replay of %s reproduced the recorded log byte-identically (%d events)\n", path, len(log.Events))
	if metrics {
		fmt.Println()
		return reg.Snapshot().WritePrometheus(os.Stdout)
	}
	return nil
}

// parseClasses parses repeated -class specs "name[@tenant]:kind:mean[:shape]".
// No specs selects a default gold+batch mix whose arrival rate the default
// one-machine cluster keeps up with (mean stretch 2-3): a faster mix builds a
// backlog that outlives the horizon several times over.
func parseClasses(specs []string) ([]serve.ClassConfig, error) {
	if len(specs) == 0 {
		return []serve.ClassConfig{
			{Name: "gold", Tenant: "gold", Arrival: workload.ArrivalConfig{Kind: workload.ArrivalPoisson, Mean: 1000}},
			{Name: "batch", Tenant: "batch", Arrival: workload.ArrivalConfig{Kind: workload.ArrivalGamma, Mean: 1600, Shape: 0.5}},
		}, nil
	}
	out := make([]serve.ClassConfig, 0, len(specs))
	for _, spec := range specs {
		parts := strings.Split(spec, ":")
		if len(parts) < 3 || len(parts) > 4 {
			return nil, fmt.Errorf("class %q: want name[@tenant]:kind:mean[:shape]", spec)
		}
		cc := serve.ClassConfig{Name: parts[0]}
		if name, tenant, ok := strings.Cut(parts[0], "@"); ok {
			cc.Name, cc.Tenant = name, tenant
		}
		cc.Arrival.Kind = workload.ArrivalKind(parts[1])
		mean, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, fmt.Errorf("class %q: mean: %w", spec, err)
		}
		cc.Arrival.Mean = mean
		if len(parts) == 4 {
			shape, err := strconv.ParseFloat(parts[3], 64)
			if err != nil {
				return nil, fmt.Errorf("class %q: shape: %w", spec, err)
			}
			cc.Arrival.Shape = shape
		}
		out = append(out, cc)
	}
	return out, nil
}

func printSummary(log *serve.RunLog) {
	s := log.Summary
	fmt.Printf("horizon=%d final_clock=%d arrivals=%d admitted=%d rejected=%d completed=%d jain=%.4f\n",
		log.Config.Horizon, s.FinalClock, s.Arrivals, s.Admitted, s.Rejected, s.Completed, s.JainFairness)
	for _, cs := range s.Classes {
		fmt.Printf("  class=%-8s tenant=%-8s arrivals=%-4d rejected=%-4d completed=%-4d mean_jct=%-8.1f mean_queue_delay=%-7.1f mean_stretch=%-6.2f jain=%.4f\n",
			cs.Class, cs.Tenant, cs.Arrivals, cs.Rejected, cs.Completed, cs.MeanJCT, cs.MeanQueueDelay, cs.MeanStretch, cs.Jain)
	}
}

// buildScheduler constructs the scheduler the config names. "anneal" and
// "mcts" are iteration-budgeted (never wall-clock-budgeted), so a run is a
// pure function of the seed like CP's. The model-guided spear algorithm
// stays excluded: its plans depend on network weights the log does not
// record.
func buildScheduler(cfg serve.Config) (sched.Scheduler, error) {
	switch cfg.Algorithm {
	case "cp":
		return baselines.NewCPScheduler(), nil
	case "anneal":
		return anneal.New(anneal.Config{Iterations: 500, Seed: cfg.Seed}), nil
	case "mcts":
		return mcts.New(mcts.Config{InitialBudget: 200, MinBudget: 20, Seed: cfg.Seed}), nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q (known: %v)", cfg.Algorithm, algorithms)
	}
}
