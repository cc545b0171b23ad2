package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"spear/internal/dag"
	"spear/internal/resource"
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

// Trace is the jobs of a MapReduce trace. A job's map tasks are its
// entries, and every other task is a reduce that depends on every map.
type Trace []*dag.Graph

// IsMapTask reports whether task id of trace job g is a map task, that is
// one of the job's entries.
func IsMapTask(g *dag.Graph, id dag.TaskID) bool { return len(g.Pred(id)) == 0 }

// The generator's calibration: the paper's statistics on a two-dimensional
// cluster of 1000 units per dimension.
const (
	traceJobCount    = 99
	traceMinTasks    = 6   // per stage: the paper filtered out jobs with <= 5 map or reduce tasks
	traceMaxMaps     = 29  // per job
	traceMaxReduces  = 38  // per job
	traceMedianMaps  = 14  // per job
	traceMedianReds  = 17  // per job
	traceMedianMapRT = 73  // seconds
	traceMedianRedRT = 32  // seconds
	traceMaxMeanRT   = 141 // seconds: the largest per-job stage mean
	traceDims        = 2
	traceCapacity    = 1000 // per dimension
)

// boundedCount draws a task count with the given median and bounds using a
// clipped geometric-ish spread around the median.
func boundedCount(r *rand.Rand, median, min, max int) int {
	// Log-normal around the median gives a long but bounded right tail.
	v := int(float64(float64(median)*math.Exp(r.NormFloat64()*0.45)) + 0.5) // float64 rounds: no fused multiply-add
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
func stageRuntimes(r *rand.Rand, n int, medianRT int64) []int64 {
	mean := float64(medianRT) * math.Exp(r.NormFloat64()*0.6)
	if mean < 2 {
		mean = 2
	}
	if mean > traceMaxMeanRT {
		mean = traceMaxMeanRT
	}
	out := make([]int64, n)
	for i := range out {
		rt := int64(float64(mean*(1+float64(r.NormFloat64()*0.25))) + 0.5) // float64 rounds: no fused multiply-add
		if rt < 1 {
			rt = 1
		}
		out[i] = rt
	}
	return out
}

// TraceCapacity returns the cluster capacity the trace jobs are sized for.
func TraceCapacity() resource.Vector {
	return resource.Uniform(traceDims, traceCapacity)
}

// GenerateTrace draws the calibrated 99-job trace from r: the same seed
// gives the same trace.
func GenerateTrace(r *rand.Rand) (Trace, error) {
	trace := make(Trace, 0, traceJobCount)
	for j := 0; j < traceJobCount; j++ {
		nMaps := boundedCount(r, traceMedianMaps, traceMinTasks, traceMaxMaps)
		nReds := boundedCount(r, traceMedianReds, traceMinTasks, traceMaxReduces)
		mapRTs := stageRuntimes(r, nMaps, traceMedianMapRT)
		redRTs := stageRuntimes(r, nReds, traceMedianRedRT)

		b := dag.NewBuilder(traceDims)
		for i, rt := range mapRTs {
			b.AddTask(fmt.Sprintf("map-%d", i), rt, traceDemand(r, false))
		}
		for i, rt := range redRTs {
			b.AddTask(fmt.Sprintf("reduce-%d", i), rt, traceDemand(r, true))
		}
		for m := 0; m < nMaps; m++ {
			for rd := nMaps; rd < nMaps+nReds; rd++ {
				b.AddDep(dag.TaskID(m), dag.TaskID(rd))
			}
		}
		g, err := b.Build()
		if err != nil {
			return nil, err
		}
		trace = append(trace, g)
	}
	return trace, nil
}

// traceDemand draws a demand vector; reduce tasks demand roughly twice the
// resources of map tasks, mirroring the paper's observation that reduce
// demands are normally higher.
func traceDemand(r *rand.Rand, isReduce bool) resource.Vector {
	frac := 0.12 // of capacity, mean for map tasks
	if isReduce {
		frac = 0.24
	}
	out := make(resource.Vector, traceDims)
	for d := range out {
		v := int64(float64(traceCapacity) * frac * (1 + float64(r.NormFloat64()*0.35))) // float64 rounds: no fused multiply-add
		if v < 1 {
			v = 1
		}
		if limit := int64(traceCapacity / 2); v > limit {
			v = limit
		}
		out[d] = v
	}
	return out
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
func (t Trace) Stats() TraceStats {
	s := TraceStats{Jobs: len(t)}
	for _, g := range t {
		var nm, nr int
		var sumM, sumR int64
		for id := 0; id < g.NumTasks(); id++ {
			rt := g.Task(dag.TaskID(id)).Runtime
			if IsMapTask(g, dag.TaskID(id)) {
				nm++
				sumM += rt
				s.MapRuntimes = append(s.MapRuntimes, rt)
			} else {
				nr++
				sumR += rt
				s.RedRuntimes = append(s.RedRuntimes, rt)
			}
		}
		s.MapTaskCounts = append(s.MapTaskCounts, nm)
		s.RedTaskCounts = append(s.RedTaskCounts, nr)
		s.MaxMaps = max(s.MaxMaps, nm)
		s.MaxReduces = max(s.MaxReduces, nr)
		s.MaxMeanMapRT = max(s.MaxMeanMapRT, float64(sumM)/float64(nm)) // a built job has an entry
		if nr > 0 {
			s.MaxMeanRedRT = max(s.MaxMeanRedRT, float64(sumR)/float64(nr))
		}
	}
	s.MedianMaps = median(s.MapTaskCounts)
	s.MedianReduces = median(s.RedTaskCounts)
	s.MedianMapRT = median(s.MapRuntimes)
	s.MedianReduceRT = median(s.RedRuntimes)
	return s
}

// median is the upper median of xs, or zero for none.
func median[T int | int64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	c := slices.Clone(xs)
	slices.Sort(c)
	return c[len(c)/2]
}
