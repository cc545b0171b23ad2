// Command spear-trace summarises the synthetic production MapReduce trace
// that substitutes for the paper's proprietary 99-job Hive trace (§V-C);
// the generator is calibrated to every statistic the paper reports.
//
// Usage:
//
//	spear-trace -seed 2019
package main

import (
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

// run parses the command line args, then generates the trace of the seed
// and prints its statistics.
func run(args []string) (err error) {
	fs := flag.NewFlagSet("spear-trace", flag.ExitOnError)
	seed := fs.Int64("seed", 2019, "generation seed")
	prof := profile.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop(&err)

	jobs, err := spear.GenerateTrace(*seed)
	if err != nil {
		return err
	}
	s := spear.SummarizeTrace(jobs)
	fmt.Printf("jobs: %d\n", s.Jobs)
	fmt.Printf("map tasks per job:    median %d, max %d (paper: 14, 29)\n", s.MedianMaps, s.MaxMaps)
	fmt.Printf("reduce tasks per job: median %d, max %d (paper: 17, 38)\n", s.MedianReduces, s.MaxReduces)
	fmt.Printf("map task runtime:     median %d (paper: 73)\n", s.MedianMapRT)
	fmt.Printf("reduce task runtime:  median %d (paper: 32)\n", s.MedianReduceRT)
	fmt.Printf("max mean reduce runtime per job: %.0f (paper: up to 141)\n", s.MaxMeanRedRT)
	return nil
}
