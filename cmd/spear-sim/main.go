// Command spear-sim schedules randomly generated jobs (or the paper's
// motivating example) with any of the implemented algorithms and prints the
// resulting makespans side by side.
//
// Usage:
//
//	spear-sim -n 10 -tasks 100 -algos spear,graphene,tetris,cp,sjf
//	spear-sim -n 10 -machines 4 -algos anneal,tetris,cp
//	spear-sim -motivating -algos spear,graphene
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"spear"
	"spear/internal/profile"
	"spear/models"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spear-sim:", err)
		os.Exit(1)
	}
}

// algorithms lists every name -algos accepts, in the order the help prints
// them; buildScheduler has one case per entry.
var algorithms = []string{
	"spear", "mcts", "graphene", "tetris", "cp", "sjf", "random", "anneal", "optimal",
}

// run parses the command line args and writes the makespan table, then the
// -gantt charts and the -metrics snapshot, to stdout.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("spear-sim", flag.ExitOnError)
	var (
		n          = fs.Int("n", 5, "number of random jobs")
		tasks      = fs.Int("tasks", 100, "tasks per job")
		algos      = fs.String("algos", "spear,graphene,tetris,cp,sjf", "comma-separated algorithms ("+strings.Join(algorithms, ",")+")")
		budget     = fs.Int("budget", 150, "initial search budget for spear/mcts")
		minBudget  = fs.Int("min-budget", 30, "minimum decayed budget for spear/mcts")
		seed       = fs.Int64("seed", 1, "random seed")
		modelPath  = fs.String("model", "", "trained model for spear (the checked-in models/policy.gob when empty)")
		motivating = fs.Bool("motivating", false, "run the paper's Fig. 3 motivating example instead of random jobs")
		gantt      = fs.Bool("gantt", false, "print an ASCII Gantt chart per schedule")
		jobPath    = fs.String("job", "", "schedule a job described by this JSON file instead of random jobs")
		capFlag    = fs.String("capacity", "", "cluster capacity for -job, comma-separated (e.g. 1000,1000)")
		svgPath    = fs.String("svg", "", "write the first scheduler's first schedule as SVG to this path")
		metrics    = fs.Bool("metrics", false, "print a Prometheus-format metrics snapshot after the run")
		machines   = fs.Int("machines", 1, "number of identical machines, each with the full capacity vector")
	)
	prof := profile.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop(&err)
	for _, f := range []struct {
		name  string
		value int
	}{{"machines", *machines}, {"budget", *budget}, {"min-budget", *minBudget}} {
		if f.value < 1 {
			return fmt.Errorf("%s %d must be >= 1", f.name, f.value)
		}
	}

	jobs, capacity, err := buildJobs(*motivating, *jobPath, *capFlag, *n, *tasks, *seed)
	if err != nil {
		return err
	}
	spec := spear.UniformCluster(*machines, capacity)

	var reg *spear.MetricsRegistry
	if *metrics {
		// One shared registry: every search-based scheduler aggregates into
		// it, and the snapshot below covers the whole run.
		reg = spear.NewMetricsRegistry()
	}
	names := strings.Split(*algos, ",")
	schedulers := make([]spear.Scheduler, 0, len(names))
	for _, name := range names {
		s, err := buildScheduler(strings.TrimSpace(name), *budget, *minBudget, *seed, *modelPath, reg)
		if err != nil {
			return err
		}
		schedulers = append(schedulers, s)
	}

	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "job")
	for _, s := range schedulers {
		fmt.Fprintf(w, "\t%s", s.Name())
	}
	fmt.Fprintln(w)
	totals := make([]int64, len(schedulers))
	var charts []string // in job order, then -algos order
	for ji, job := range jobs {
		fmt.Fprintf(w, "%d", ji)
		for si, s := range schedulers {
			out, err := s.Schedule(job, spec)
			if err != nil {
				return fmt.Errorf("%s on job %d: %w", s.Name(), ji, err)
			}
			if err := spear.Validate(job, spec, out); err != nil {
				return fmt.Errorf("%s produced an invalid schedule on job %d: %w", s.Name(), ji, err)
			}
			totals[si] += out.Makespan
			fmt.Fprintf(w, "\t%d", out.Makespan)
			if *gantt {
				charts = append(charts, fmt.Sprintf("job %d  %s", ji, spear.Gantt(out, job, 60)))
			}
			if *svgPath != "" && ji == 0 && si == 0 {
				if err := writeSVGFile(*svgPath, out, job); err != nil {
					return err
				}
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprint(w, "avg")
	for _, total := range totals {
		fmt.Fprintf(w, "\t%.1f", float64(total)/float64(len(jobs)))
	}
	fmt.Fprintln(w)
	if err := w.Flush(); err != nil {
		return err
	}
	for _, chart := range charts {
		fmt.Fprint(stdout, chart)
	}
	if reg != nil {
		fmt.Fprintln(stdout)
		if err := reg.Snapshot().WritePrometheus(stdout); err != nil {
			return err
		}
	}
	return nil
}

func buildJobs(motivating bool, jobPath, capFlag string, n, tasks int, seed int64) ([]*spear.Job, spear.Vector, error) {
	if jobPath != "" {
		f, err := os.Open(jobPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close() //spear:ignoreerr(read-only file; a close error loses no data)
		job, _, err := spear.LoadJob(f)
		if err != nil {
			return nil, nil, err
		}
		capacity, err := parseCapacity(capFlag, job.Dims())
		if err != nil {
			return nil, nil, err
		}
		return []*spear.Job{job}, capacity, nil
	}
	if motivating {
		job, err := spear.MotivatingExample(100)
		if err != nil {
			return nil, nil, err
		}
		return []*spear.Job{job}, spear.MotivatingCapacity(), nil
	}
	if n < 1 {
		return nil, nil, fmt.Errorf("n %d must be >= 1", n)
	}
	cfg := spear.DefaultRandomJobConfig()
	cfg.NumTasks = tasks
	jobs, err := spear.RandomJobs(seed, cfg, n)
	if err != nil {
		return nil, nil, err
	}
	return jobs, cfg.Capacity(), nil
}

// writeSVGFile renders one schedule as an SVG Gantt chart.
func writeSVGFile(path string, s *spear.Schedule, job *spear.Job) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := spear.WriteScheduleSVG(f, s, job, 900, 16); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// parseCapacity parses "a,b,..." into a vector with the given dimensions;
// empty input defaults to 1000 units per dimension.
func parseCapacity(s string, dims int) (spear.Vector, error) {
	if s == "" {
		out := make(spear.Vector, dims)
		for i := range out {
			out[i] = 1000
		}
		return out, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != dims {
		return nil, fmt.Errorf("capacity has %d dimensions, job needs %d", len(parts), dims)
	}
	out := make(spear.Vector, dims)
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("capacity %q: %w", p, err)
		}
		out[i] = v
	}
	return out, nil
}

func buildScheduler(name string, budget, minBudget int, seed int64, modelPath string, reg *spear.MetricsRegistry) (spear.Scheduler, error) {
	switch name {
	case "spear":
		net, err := models.Load(modelPath)
		if err != nil {
			return nil, err
		}
		return spear.NewSpear(net, spear.DefaultFeatures(), spear.SpearConfig{InitialBudget: budget, MinBudget: minBudget, Seed: seed, Obs: reg})
	case "mcts":
		return spear.NewMCTS(spear.MCTSConfig{InitialBudget: budget, MinBudget: minBudget, Seed: seed, Obs: reg}), nil
	case "graphene":
		return spear.NewGraphene(), nil
	case "tetris":
		return spear.NewTetris(), nil
	case "cp":
		return spear.NewCP(), nil
	case "sjf":
		return spear.NewSJF(), nil
	case "random":
		return spear.NewRandom(seed), nil
	case "anneal":
		return spear.NewAnnealing(500, seed), nil
	case "optimal":
		s := spear.NewOptimal(0)
		s.Obs = reg
		return s, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q (known: %v)", name, algorithms)
	}
}
