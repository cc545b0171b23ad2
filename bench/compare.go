package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func loadBenchmarkFile(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// loadReports reads every report of a file: -out and history files hold
// one JSON object per line.
func loadReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //spear:ignoreerr(the file is only read)
	var reps []report
	dec := json.NewDecoder(f)
	for {
		var r report
		err := dec.Decode(&r)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		reps = append(reps, r)
	}
	if len(reps) == 0 {
		return nil, fmt.Errorf("%s: no report", path)
	}
	return reps, nil
}

// samples collects one end-to-end metric of one workload over the reports.
func samples(reps []report, workload, metric string) []float64 {
	var xs []float64
	for _, r := range reps {
		for _, wr := range r.Workloads {
			if wr.Name != workload {
				continue
			}
			if v, ok := wr.EndToEnd[metric]; ok {
				xs = append(xs, v.Value)
			}
		}
	}
	return xs
}

// verdict judges b against a for one metric by the rules of the
// choosing-metrics guide: a spread wider than the bound leaves the pair
// unresolved unless every run of b beats every run of a.
func verdict(a, b []float64, better string, bound float64) string {
	sign := 1.0 // positive delta = worse
	if better == "higher" {
		sign = -1
	}
	ma, mb := median(a), median(b)
	worse := sign * ratio(mb-ma, math.Abs(ma))
	everyBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				everyBetter = false
			}
		}
	}
	q1, q3 := quartiles(a)
	switch {
	case everyBetter:
		return "better"
	case spread(a) > bound || spread(b) > bound:
		return "unresolved"
	case worse > bound:
		return "worse"
	case worse < 0 && math.Abs(mb-ma) > q3-q1 && len(a) > 1:
		return "better"
	default:
		return "within-bound"
	}
}

// compareFiles prints, per workload and end-to-end metric, both medians and
// spreads, the change from a to b and the verdict under the metric's bound.
func compareFiles(w io.Writer, boundsFile, pathA, pathB string) error {
	bf, err := loadBenchmarkFile(boundsFile)
	if err != nil {
		return err
	}
	a, err := loadReports(pathA)
	if err != nil {
		return err
	}
	b, err := loadReports(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %-18s %14s %8s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "a.median", "a.iqr", "b.median", "b.iqr", "delta", "bound", "verdict")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			xa, xb := samples(a, wl.Name, m.Name), samples(b, wl.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			fmt.Fprintf(w, "%-16s %-18s %14.4f %7.1f%% %14.4f %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, ma, 100*spread(xa), mb, 100*spread(xb),
				100*ratio(mb-ma, math.Abs(ma)), 100*m.Bound, verdict(xa, xb, m.Better, m.Bound))
		}
	}
	return nil
}
