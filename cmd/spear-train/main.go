// Command spear-train runs the paper's training pipeline — supervised
// warm-start imitating the critical-path heuristic, then REINFORCE with an
// averaged-rollout baseline — and saves the policy network for use by
// spear-sim and spear-experiments.
//
// Usage:
//
//	spear-train -out model.gob -train-jobs 144 -epochs 300 -rollouts 20
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"spear"
	"spear/internal/profile"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spear-train:", err)
		os.Exit(1)
	}
}

// run parses the command line args, trains the model and writes it, with
// the learning curve and the -metrics snapshot as asked.
func run(args []string) (err error) {
	fs := flag.NewFlagSet("spear-train", flag.ExitOnError)
	var (
		out            = fs.String("out", "model.gob", "path to write the trained model")
		trainJobs      = fs.Int("train-jobs", 16, "number of generated training jobs (paper: 144)")
		tasksPerJob    = fs.Int("tasks", 25, "tasks per training job (paper: 25)")
		pretrainEpochs = fs.Int("pretrain-epochs", 12, "supervised warm-start epochs")
		epochs         = fs.Int("epochs", 60, "REINFORCE epochs (paper: 7000)")
		rollouts       = fs.Int("rollouts", 20, "rollouts per example for the baseline (paper: 20)")
		workers        = fs.Int("workers", 0, "rollout/backprop worker goroutines (0 = GOMAXPROCS)")
		seed           = fs.Int64("seed", 1, "random seed")
		quiet          = fs.Bool("q", false, "suppress per-epoch progress")
		curvePath      = fs.String("curve", "", "write the learning curve as CSV to this path")
		ckptEvery      = fs.Int("checkpoint-every", 0, "save the model to -out every N epochs (0 = only at the end)")
		metrics        = fs.Bool("metrics", false, "print a Prometheus-format training metrics snapshot after the run")
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
		name       string
		value, min int
	}{
		{"train-jobs", *trainJobs, 1},
		{"tasks", *tasksPerJob, 1},
		{"pretrain-epochs", *pretrainEpochs, 1},
		{"epochs", *epochs, 1},
		{"rollouts", *rollouts, 1},
		{"workers", *workers, 0},
		{"checkpoint-every", *ckptEvery, 0},
	} {
		if f.value < f.min {
			return fmt.Errorf("%s %d must be >= %d", f.name, f.value, f.min)
		}
	}

	reinforce := spear.ReinforceConfig{Epochs: *epochs, Rollouts: *rollouts, Workers: *workers}
	if *ckptEvery > 0 {
		reinforce.CheckpointEvery = *ckptEvery
		reinforce.Checkpoint = func(epoch int, net *spear.Network) error {
			if err := writeModel(*out, net); err != nil {
				return err
			}
			if !*quiet {
				fmt.Printf("checkpoint after epoch %d -> %s\n", epoch, *out)
			}
			return nil
		}
	}
	cfg := spear.ModelConfig{
		Feat:         spear.DefaultFeatures(),
		TrainJobs:    *trainJobs,
		TasksPerJob:  *tasksPerJob,
		PretrainCfg:  spear.PretrainConfig{Epochs: *pretrainEpochs},
		ReinforceCfg: reinforce,
		Seed:         *seed,
	}
	var tm *spear.TrainMetrics
	if *metrics {
		tm = spear.NewTrainMetrics(nil)
		cfg.Metrics = tm
	}
	progress := func(st spear.EpochStats) {
		if !*quiet {
			fmt.Printf("epoch %4d: mean makespan %8.1f (min %d, max %d)\n",
				st.Epoch, st.MeanMakespan, st.MinMakespan, st.MaxMakespan)
		}
	}

	net, curve, _, err := spear.TrainModel(cfg, progress)
	if err != nil {
		return err
	}
	if len(curve) > 0 {
		first, last := curve[0], curve[len(curve)-1]
		fmt.Printf("learning curve: %.1f -> %.1f over %d epochs\n", first.MeanMakespan, last.MeanMakespan, len(curve))
	}
	if *curvePath != "" {
		f, err := os.Create(*curvePath)
		if err != nil {
			return err
		}
		if err := spear.WriteCurveCSV(f, curve); err != nil {
			return errors.Join(err, f.Close())
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("learning curve written to %s\n", *curvePath)
	}

	if err := writeModel(*out, net); err != nil {
		return err
	}
	fmt.Printf("model written to %s\n", *out)
	if tm != nil {
		st := tm.Stats()
		fmt.Printf("training: %d trajectories, %d steps, %d updates, mean grad norm %.4g, mean baseline spread %.1f\n",
			st.Trajectories, st.Steps, st.GradUpdates, st.MeanGradNorm, st.MeanBaselineSpread)
		if st.PolicyCalls > 0 {
			fmt.Printf("policy: %d evaluations, %d answered from the samplers' memos (%.1f%%), %d forward passes run\n",
				st.PolicyCalls, st.PolicyCacheHits, 100*float64(st.PolicyCacheHits)/float64(st.PolicyCalls), st.PolicyCalls-st.PolicyCacheHits)
		}
		if err := tm.Snapshot().WritePrometheus(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// writeModel saves the network to path, which -checkpoint-every makes the
// only good checkpoint of a long run.
func writeModel(path string, net *spear.Network) error {
	return writeFileAtomic(path, func(w io.Writer) error { return spear.SaveModel(w, net) })
}

// writeFileAtomic replaces path with what write produces, or leaves it as it
// was: the bytes go to a temporary file in the same directory, are synced, and
// only then renamed over path, so neither a failing write nor a kill part-way
// truncates the file that was there.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	discard := func(err error) error { return errors.Join(err, tmp.Close(), os.Remove(tmp.Name())) }
	if err := write(tmp); err != nil {
		return discard(err)
	}
	// CreateTemp's 0600 suits a secret, not a model other tools load.
	if err := tmp.Chmod(0o644); err != nil {
		return discard(err)
	}
	if err := tmp.Sync(); err != nil {
		return discard(err)
	}
	if err := tmp.Close(); err != nil {
		return errors.Join(err, os.Remove(tmp.Name()))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return errors.Join(err, os.Remove(tmp.Name()))
	}
	return nil
}
