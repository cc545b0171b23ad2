// Command spear-trace generates and inspects the synthetic production
// MapReduce trace that substitutes for the paper's proprietary 99-job Hive
// trace (§V-C); the generator is calibrated to every statistic the paper
// reports.
//
// Usage:
//
//	spear-trace -out trace.json
//	spear-trace -in trace.json -stats
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"spear"
	"spear/internal/profile"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spear-trace:", err)
		os.Exit(1)
	}
}

// run parses the command line args, then generates or reads the trace,
// writes it and prints its statistics as asked.
func run(args []string) (err error) {
	fs := flag.NewFlagSet("spear-trace", flag.ExitOnError)
	var (
		out   = fs.String("out", "", "write a freshly generated trace to this path")
		in    = fs.String("in", "", "read an existing trace instead of generating one")
		seed  = fs.Int64("seed", 2019, "generation seed")
		stats = fs.Bool("stats", true, "print the trace's summary statistics")
	)
	prof := profile.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop(&err)

	var trace *spear.Trace
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close() //spear:ignoreerr(read-only file; a close error loses no data)
		trace, err = spear.LoadTrace(f)
		if err != nil {
			return err
		}
	} else {
		trace = spear.GenerateTrace(*seed)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := trace.Save(f); err != nil {
			return errors.Join(err, f.Close())
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace with %d jobs written to %s\n", len(trace.Jobs), *out)
	}

	if *stats {
		s := trace.Stats()
		fmt.Printf("jobs: %d\n", s.Jobs)
		fmt.Printf("map tasks per job:    median %d, max %d (paper: 14, 29)\n", s.MedianMaps, s.MaxMaps)
		fmt.Printf("reduce tasks per job: median %d, max %d (paper: 17, 38)\n", s.MedianReduces, s.MaxReduces)
		fmt.Printf("map task runtime:     median %d (paper: 73)\n", s.MedianMapRT)
		fmt.Printf("reduce task runtime:  median %d (paper: 32)\n", s.MedianReduceRT)
		fmt.Printf("max mean reduce runtime per job: %.0f (paper: up to 141)\n", s.MaxMeanRedRT)
	}
	return nil
}
