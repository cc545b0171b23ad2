package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"spear/internal/dag"
	"spear/internal/resource"
	"spear/internal/sched"
)

// The production Hive/MapReduce trace used in the paper's §V-C experiments
// is proprietary. This file builds the closest synthetic equivalent: a
// 99-job, two-stage MapReduce trace whose distributions are calibrated to
// every statistic the paper reports:
//
//   - 99 jobs, each with more than 5 map tasks and more than 5 reduce tasks;
//   - max map/reduce task counts 29 and 38, medians 14 and 17 (Fig. 9a);
//   - median map/reduce task runtimes 73s and 32s (Fig. 9b);
//   - per-job mean reduce runtimes ranging up to ~141s.
//
// Every reduce task depends on every map task (the shuffle barrier), so the
// jobs carry real dependencies, and reduce tasks have higher resource
// demands than map tasks as the paper observes (§II-C).

// traceJobCount is the number of jobs in the paper's trace.
const traceJobCount = 99

// TraceTask is one task in a serialized trace job.
type TraceTask struct {
	Name    string  `json:"name"`
	Stage   string  `json:"stage"` // "map" or "reduce"
	Runtime int64   `json:"runtimeSecs"`
	Demand  []int64 `json:"demand"`
}

// TraceJob is one MapReduce job: all map tasks precede all reduce tasks.
type TraceJob struct {
	Name  string      `json:"name"`
	Tasks []TraceTask `json:"tasks"`
}

// Trace is a set of MapReduce jobs plus the cluster capacity they were
// sized for.
type Trace struct {
	// Format versions the document; absent (0) and sched.FormatSingle both
	// mean the original single-machine encoding. See sched.CheckFormat.
	Format   int        `json:"format,omitempty"`
	Capacity []int64    `json:"capacity"`
	Jobs     []TraceJob `json:"jobs"`
}

// TraceConfig tunes the synthetic trace generator. The zero value is not
// valid; use DefaultTraceConfig.
type TraceConfig struct {
	Jobs        int
	MinTasks    int   // per stage (paper: jobs with <=5 map or reduce tasks were filtered out)
	MaxMaps     int   // paper: 29
	MaxReduces  int   // paper: 38
	MedianMaps  int   // paper: 14
	MedianReds  int   // paper: 17
	MedianMapRT int64 // paper: 73
	MedianRedRT int64 // paper: 32
	MaxMeanRT   int64 // paper: reduce-stage means range up to 141
	Dims        int
	Capacity    int64 // per dimension
}

// DefaultTraceConfig returns the calibration matching the paper's reported
// statistics on a 1000-unit/dimension cluster.
func DefaultTraceConfig() TraceConfig {
	return TraceConfig{
		Jobs:        traceJobCount,
		MinTasks:    6,
		MaxMaps:     29,
		MaxReduces:  38,
		MedianMaps:  14,
		MedianReds:  17,
		MedianMapRT: 73,
		MedianRedRT: 32,
		MaxMeanRT:   141,
		Dims:        2,
		Capacity:    1000,
	}
}

// boundedCount draws a task count with the given median and bounds using a
// clipped geometric-ish spread around the median.
func boundedCount(r *rand.Rand, median, min, max int) int {
	// Log-normal around the median gives a long but bounded right tail.
	v := int(float64(median)*math.Exp(r.NormFloat64()*0.45) + 0.5)
	if v < min {
		v = min
	}
	if v > max {
		v = max
	}
	return v
}

// stageRuntimes draws per-task runtimes for one stage: the stage mean is
// log-normally distributed around the target median, and task runtimes
// scatter around that mean.
func stageRuntimes(r *rand.Rand, n int, medianRT, maxMean int64) []int64 {
	mean := float64(medianRT) * math.Exp(r.NormFloat64()*0.6)
	if mean < 2 {
		mean = 2
	}
	if mean > float64(maxMean) {
		mean = float64(maxMean)
	}
	out := make([]int64, n)
	for i := range out {
		rt := int64(mean*(1+r.NormFloat64()*0.25) + 0.5)
		if rt < 1 {
			rt = 1
		}
		out[i] = rt
	}
	return out
}

// GenerateTrace produces a reproducible synthetic trace for the given seed.
func GenerateTrace(r *rand.Rand, cfg TraceConfig) (*Trace, error) {
	if cfg.Jobs < 1 || cfg.Dims < 1 || cfg.Capacity < 1 {
		return nil, fmt.Errorf("workload: invalid trace config %+v", cfg)
	}
	trace := &Trace{Capacity: resource.Uniform(cfg.Dims, cfg.Capacity), Jobs: make([]TraceJob, 0, cfg.Jobs)}
	for j := 0; j < cfg.Jobs; j++ {
		nMaps := boundedCount(r, cfg.MedianMaps, cfg.MinTasks, cfg.MaxMaps)
		nReds := boundedCount(r, cfg.MedianReds, cfg.MinTasks, cfg.MaxReduces)
		mapRTs := stageRuntimes(r, nMaps, cfg.MedianMapRT, cfg.MaxMeanRT)
		redRTs := stageRuntimes(r, nReds, cfg.MedianRedRT, cfg.MaxMeanRT)

		job := TraceJob{Name: fmt.Sprintf("job-%02d", j)}
		for i, rt := range mapRTs {
			job.Tasks = append(job.Tasks, TraceTask{
				Name:    fmt.Sprintf("map-%d", i),
				Stage:   "map",
				Runtime: rt,
				Demand:  traceDemand(r, cfg, false),
			})
		}
		for i, rt := range redRTs {
			job.Tasks = append(job.Tasks, TraceTask{
				Name:    fmt.Sprintf("reduce-%d", i),
				Stage:   "reduce",
				Runtime: rt,
				Demand:  traceDemand(r, cfg, true),
			})
		}
		trace.Jobs = append(trace.Jobs, job)
	}
	return trace, nil
}

// traceDemand draws a demand vector; reduce tasks demand roughly twice the
// resources of map tasks, mirroring the paper's observation that reduce
// demands are normally higher.
func traceDemand(r *rand.Rand, cfg TraceConfig, isReduce bool) []int64 {
	frac := 0.12 // of capacity, mean for map tasks
	if isReduce {
		frac = 0.24
	}
	out := make([]int64, cfg.Dims)
	for d := range out {
		v := int64(float64(cfg.Capacity) * frac * (1 + r.NormFloat64()*0.35))
		if v < 1 {
			v = 1
		}
		if limit := cfg.Capacity / 2; v > limit {
			v = limit
		}
		out[d] = v
	}
	return out
}

// Graph converts one trace job into a DAG: map tasks are entries and every
// reduce task depends on every map task.
func (j *TraceJob) Graph(dims int) (*dag.Graph, error) {
	b := dag.NewBuilder(dims)
	var maps, reduces []dag.TaskID
	for _, t := range j.Tasks {
		id := b.AddTask(t.Name, t.Runtime, resource.Of(t.Demand...))
		switch t.Stage {
		case "map":
			maps = append(maps, id)
		case "reduce":
			reduces = append(reduces, id)
		default:
			return nil, fmt.Errorf("workload: job %s task %s has unknown stage %q", j.Name, t.Name, t.Stage)
		}
	}
	for _, m := range maps {
		for _, rd := range reduces {
			b.AddDep(m, rd)
		}
	}
	return b.Build()
}

// Graphs converts every job in the trace into a DAG.
func (t *Trace) Graphs() ([]*dag.Graph, error) {
	out := make([]*dag.Graph, 0, len(t.Jobs))
	dims := len(t.Capacity)
	for i := range t.Jobs {
		g, err := t.Jobs[i].Graph(dims)
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}

// Save writes the trace as indented JSON.
func (t *Trace) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// LoadTrace reads a trace previously written by Save and validates it, so a
// hand-edited file fails here with a precise error instead of panicking
// later in TraceJob.Graph or resource.Of.
func LoadTrace(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("workload: decode trace: %w", err)
	}
	if err := sched.CheckFormat(t.Format); err != nil {
		return nil, fmt.Errorf("workload: trace: %w", err)
	}
	if len(t.Capacity) == 0 || len(t.Jobs) == 0 {
		return nil, fmt.Errorf("workload: trace is empty")
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("workload: invalid trace: %w", err)
	}
	return &t, nil
}

// Validate checks the structural invariants every trace must satisfy:
// positive capacity in every dimension, every task a known stage ("map" or
// "reduce"), runtimes >= 1, and demand dimensionality matching the
// capacity's.
func (t *Trace) Validate() error {
	dims := len(t.Capacity)
	for d, c := range t.Capacity {
		if c < 1 {
			return fmt.Errorf("capacity dimension %d is %d, must be >= 1", d, c)
		}
	}
	for ji := range t.Jobs {
		job := &t.Jobs[ji]
		for ti := range job.Tasks {
			task := &job.Tasks[ti]
			if task.Stage != "map" && task.Stage != "reduce" {
				return fmt.Errorf("job %q task %q: unknown stage %q (want \"map\" or \"reduce\")",
					job.Name, task.Name, task.Stage)
			}
			if task.Runtime < 1 {
				return fmt.Errorf("job %q task %q: runtime %d, must be >= 1",
					job.Name, task.Name, task.Runtime)
			}
			if len(task.Demand) != dims {
				return fmt.Errorf("job %q task %q: demand has %d dimensions, capacity has %d",
					job.Name, task.Name, len(task.Demand), dims)
			}
		}
	}
	return nil
}

// TraceStats summarizes a trace the way Fig. 9(a)/9(b) present it.
type TraceStats struct {
	Jobs                         int
	MedianMaps, MaxMaps          int
	MedianReduces, MaxReduces    int
	MedianMapRT, MedianReduceRT  int64
	MaxMeanMapRT, MaxMeanRedRT   float64
	MapTaskCounts, RedTaskCounts []int
	MapRuntimes, RedRuntimes     []int64
}

// Stats computes the summary statistics of the trace.
func (t *Trace) Stats() TraceStats {
	var s TraceStats
	s.Jobs = len(t.Jobs)
	for i := range t.Jobs {
		var nm, nr int
		var sumM, sumR int64
		for _, task := range t.Jobs[i].Tasks {
			// Switch on the stage explicitly: an unknown stage must not be
			// silently counted as a reduce task.
			switch task.Stage {
			case "map":
				nm++
				sumM += task.Runtime
				s.MapRuntimes = append(s.MapRuntimes, task.Runtime)
			case "reduce":
				nr++
				sumR += task.Runtime
				s.RedRuntimes = append(s.RedRuntimes, task.Runtime)
			}
		}
		s.MapTaskCounts = append(s.MapTaskCounts, nm)
		s.RedTaskCounts = append(s.RedTaskCounts, nr)
		if nm > s.MaxMaps {
			s.MaxMaps = nm
		}
		if nr > s.MaxReduces {
			s.MaxReduces = nr
		}
		if nm > 0 {
			if m := float64(sumM) / float64(nm); m > s.MaxMeanMapRT {
				s.MaxMeanMapRT = m
			}
		}
		if nr > 0 {
			if m := float64(sumR) / float64(nr); m > s.MaxMeanRedRT {
				s.MaxMeanRedRT = m
			}
		}
	}
	s.MedianMaps = medianInt(s.MapTaskCounts)
	s.MedianReduces = medianInt(s.RedTaskCounts)
	s.MedianMapRT = medianInt64(s.MapRuntimes)
	s.MedianReduceRT = medianInt64(s.RedRuntimes)
	return s
}

func medianInt(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	c := append([]int(nil), xs...)
	sort.Ints(c)
	return c[len(c)/2]
}

func medianInt64(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]int64(nil), xs...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c[len(c)/2]
}
