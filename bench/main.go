// Command bench is the repository's benchmark: five workloads, each
// measured end to end without instrumentation and then traced layer by
// layer from outside the product (README.md has the glossary and the
// layer -> metric -> workload predictions).
//
// Usage, from the repository root:
//
//	go run ./bench -seed 2019 -out run.json       # every workload, both passes
//	go run ./bench -workload mcts_dag100          # one workload, both passes
//	go run ./bench -smoke                         # shrunk counts, a few seconds
//	go run ./bench -compare a.json b.json         # verdict per workload x metric
//	go run ./bench -seed 2019 -append-history -commit $(git rev-parse HEAD)
//
// The benchmark driver calls
//
//	go run ./bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output: one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

const (
	defaultSeconds = 20 // run_seconds of BENCHMARK.json
	smokeSeconds   = 0.2
	historyPath    = "bench/history.jsonl"
	boundsPath     = "BENCHMARK.json"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string // "0" end to end only, "1" traced only, "" both
	smoke    bool
	out      string
	spans    string
	commit   string
	history  bool
}

// contract reports whether the run is one the driver asked for: a single
// workload and a single pass, answered with one JSON line.
func (o options) contract() bool { return o.workload != "" && o.trace != "" }

func run(args []string, stdout, stderr io.Writer) int {
	var opt options
	var compare bool
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opt.workload, "workload", "", "run only this workload (default: all five)")
	fs.Int64Var(&opt.seed, "seed", 2019, "seed of the generated inputs")
	fs.Float64Var(&opt.seconds, "seconds", 0, "seconds each workload is measured for (default 20, 0.2 with -smoke)")
	fs.StringVar(&opt.trace, "trace", "", "0: end-to-end pass only; 1: traced pass only; default both")
	fs.BoolVar(&opt.smoke, "smoke", false, "shrink every count so that the suite ends in a few seconds")
	fs.StringVar(&opt.out, "out", "", "append the run's report to this file as one JSON line")
	fs.StringVar(&opt.spans, "spans", "", "write the traced pass's spans to this file as JSON lines")
	fs.StringVar(&opt.commit, "commit", "unknown", "commit recorded in the report")
	fs.BoolVar(&opt.history, "append-history", false, "append the end-to-end numbers to "+historyPath)
	fs.BoolVar(&compare, "compare", false, "compare two report files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two report files")
			return 2
		}
		if err := compareFiles(stdout, boundsPath, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if opt.trace != "" && opt.trace != "0" && opt.trace != "1" {
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1")
		return 2
	}
	ok, err := execute(opt, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !ok && !opt.contract() {
		return 1
	}
	return 0
}

// report is one run of the benchmark: the -out and history record and the
// input of -compare.
type report struct {
	Commit    string           `json:"commit"`
	Timestamp string           `json:"timestamp"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Smoke     bool             `json:"smoke,omitempty"`
	Machine   machineInfo      `json:"machine"`
	Workloads []workloadReport `json:"workloads"`
}

type machineInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

type workloadReport struct {
	Name      string             `json:"name"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Notes     []string           `json:"notes,omitempty"`
	EndToEnd  map[string]reading `json:"end_to_end,omitempty"`
	PerLayer  map[string]reading `json:"per_layer,omitempty"`
}

// contractLine is the last line of standard output the driver parses.
type contractLine struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

// execute runs the selected workloads and reports whether every output
// check passed and, when both passes ran, the attribution added up.
func execute(opt options, stdout, stderr io.Writer) (bool, error) {
	sz := fullSizes
	if opt.smoke {
		sz = smokeSizes
	}
	if opt.seconds <= 0 {
		opt.seconds = defaultSeconds
		if opt.smoke {
			opt.seconds = smokeSeconds
		}
	}
	if opt.trace == "1" {
		sz.setupRepeats = 1 // setup_s is an end-to-end metric
	}
	selected := workloads
	if opt.workload != "" {
		w, found := findWorkload(opt.workload)
		if !found {
			return false, fmt.Errorf("unknown workload %q", opt.workload)
		}
		selected = []workloadDef{w}
	}

	in, err := setUp(opt.seed, sz)
	if err != nil {
		return false, err
	}
	rep := report{
		Commit:    opt.commit,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Seed:      opt.seed,
		Seconds:   opt.seconds,
		Smoke:     opt.smoke,
		Machine: machineInfo{
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go:         runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
		},
	}
	var spans io.Writer
	if opt.spans != "" {
		f, err := os.Create(opt.spans)
		if err != nil {
			return false, err
		}
		defer f.Close() //spear:ignoreerr(the span writes are flushed and checked in writeSpans)
		spans = f
	}

	ok := true
	for _, w := range selected {
		wr := workloadReport{Name: w.name}
		var total outcome
		if opt.trace != "1" {
			o := w.run(in, sz, opt.seconds)
			total.add(o)
			if wr.EndToEnd, err = readings(endToEnd, o.m); err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
		}
		if opt.trace != "0" {
			o, tr := w.trace(in, sz)
			total.add(o)
			if wr.PerLayer, err = readings(perLayer, o.m); err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			if spans != nil && tr != nil {
				if err := tr.writeSpans(spans, w.name); err != nil {
					return false, fmt.Errorf("%s: write spans: %w", w.name, err)
				}
			}
			// The band is enforced only on a full run: the driver's single
			// traced run reports the number and lets the reader judge, and
			// a smoke run is too short to attribute.
			if c := o.m["attribution.coverage"]; !opt.contract() && !opt.smoke && (c < coverageMin || c > coverageMax) {
				total.notes = append(total.notes, fmt.Sprintf("attribution.coverage %.3f is outside %.2f-%.2f", c, coverageMin, coverageMax))
				ok = false
			}
		}
		wr.Attempted, wr.Failed, wr.Notes = total.attempted, total.failed, total.notes
		wr.Correct = wr.Failed == 0
		ok = ok && wr.Correct
		printWorkload(stdout, wr)
		for _, note := range wr.Notes {
			fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, note)
		}
		rep.Workloads = append(rep.Workloads, wr)
	}

	if opt.out != "" {
		if err := appendReport(opt.out, rep); err != nil {
			return false, err
		}
	}
	if opt.history {
		if err := appendReport(historyPath, rep.endToEndOnly()); err != nil {
			return false, err
		}
	}
	if opt.contract() {
		wr := rep.Workloads[0]
		line := contractLine{Correct: wr.Correct, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: wr.EndToEnd}
		if opt.trace == "1" {
			line.Metrics = wr.PerLayer
		}
		data, err := json.Marshal(line)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(stdout, "%s\n", data)
	}
	return ok, nil
}

// printWorkload prints every metric by name with its unit.
func printWorkload(w io.Writer, wr workloadReport) {
	fmt.Fprintf(w, "== %s: attempted %d, failed %d\n", wr.Name, wr.Attempted, wr.Failed)
	for _, group := range []map[string]reading{wr.EndToEnd, wr.PerLayer} {
		names := make([]string, 0, len(group))
		for name := range group {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "%-16s %-34s %16.4f %s\n", wr.Name, name, group[name].Value, group[name].Unit)
		}
	}
}

// endToEndOnly is the history form of a report: what later runs are
// compared against, without the layer numbers and the notes.
func (r report) endToEndOnly() report {
	kept := make([]workloadReport, len(r.Workloads))
	for i, wr := range r.Workloads {
		wr.PerLayer = nil
		wr.Notes = nil
		kept[i] = wr
	}
	r.Workloads = kept
	return r
}

// appendReport appends r to the file as one JSON line.
func appendReport(path string, r report) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close() //spear:ignoreerr(the write error is the one reported)
		return err
	}
	return f.Close()
}
