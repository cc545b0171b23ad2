package drl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/resource"
	"spear/internal/simenv"
)

// keyShape is one shape of the episodes the key property is checked on.
type keyShape struct {
	machines, window int
	mode             simenv.ProcessMode
	// edge scales every capacity to MaxInt64/machines and every demand by
	// the same factor, so that occupancy sums pass 2⁵³ and the total
	// capacity nearly fills an int64.
	edge bool
}

// keyShapeOf decodes the low four bits of b: one or four machines, Window 3
// (so that ready tasks back up behind it) or 15, either process mode, and
// ordinary or int64-edge magnitudes.
func keyShapeOf(b uint8) keyShape {
	s := keyShape{machines: 1, window: 3, mode: simenv.NextCompletion, edge: b&8 != 0}
	if b&1 != 0 {
		s.machines = 4
	}
	if b&2 != 0 {
		s.window = 15
	}
	if b&4 != 0 {
		s.mode = simenv.OneSlot
	}
	return s
}

// scaleToEdge returns g with every demand multiplied by the factor that
// takes capacity to MaxInt64/machines per machine, and that capacity.
func scaleToEdge(t testing.TB, g *dag.Graph, capacity resource.Vector, machines int) (*dag.Graph, resource.Vector) {
	t.Helper()
	perMachine := int64(math.MaxInt64) / int64(machines)
	factor, scaled := make([]int64, g.Dims()), make(resource.Vector, g.Dims())
	for d := range factor {
		factor[d] = perMachine / capacity[d]
		scaled[d] = factor[d] * capacity[d]
	}
	return scaleDemands(t, g, factor), scaled
}

// scaleDemands returns g with every demand of dimension d multiplied by
// factor[d].
func scaleDemands(t testing.TB, g *dag.Graph, factor []int64) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder(g.Dims())
	for id := 0; id < g.NumTasks(); id++ {
		task := g.Task(dag.TaskID(id))
		demand := task.Demand.Clone()
		for d := range demand {
			demand[d] *= factor[d]
		}
		b.AddTask(task.Name, task.Runtime, demand)
	}
	for id := 0; id < g.NumTasks(); id++ {
		for _, c := range g.Succ(dag.TaskID(id)) {
			b.AddDep(dag.TaskID(id), c)
		}
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkKeyDeterminesEncoding plays random episodes of one job in shape s and
// groups the states met by the key packState gives them. Within a group the
// Encode outputs must be bit-equal. It reports whether some group holds
// states whose clocks or done sets differ, which is what makes the property
// say something.
func checkKeyDeterminesEncoding(t testing.TB, s keyShape, seed int64) (spans bool) {
	t.Helper()
	feat := Features{Window: s.window, Horizon: 8, Dims: 2}
	jobs, capacity := testJobs(t, 1, 12, seed)
	g := jobs[0]
	if s.edge {
		g, capacity = scaleToEdge(t, g, capacity, s.machines)
	}
	base, err := simenv.NewCluster(g, cluster.Uniform(s.machines, capacity), simenv.Config{Window: s.window, Mode: s.mode})
	if err != nil {
		t.Fatal(err)
	}
	type first struct {
		x    []float64
		now  int64
		done string
	}
	groups := map[string]first{}
	key := make([]int64, feat.stateWords())
	rng := rand.New(rand.NewSource(seed))
	for ep := 0; ep < 24; ep++ {
		for e := base.Clone(); !e.Done(); {
			legal := e.LegalActions()
			feat.packState(e, legal, key)
			x := feat.Encode(e, nil)
			done := make([]byte, g.NumTasks())
			for id := range done {
				if e.TaskDone(dag.TaskID(id)) {
					done[id] = 1
				}
			}
			k := fmt.Sprint(key)
			if f, ok := groups[k]; !ok {
				groups[k] = first{x: x, now: e.Now(), done: string(done)}
			} else {
				if !sameBits(x, f.x) {
					t.Fatalf("%+v seed %d: key %v encodes as %v and as %v", s, seed, key, f.x, x)
				}
				spans = spans || f.now != e.Now() || f.done != string(done)
			}
			if err := e.Step(legal[rng.Intn(len(legal))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return spans
}

// TestKeyDeterminesEncoding runs the key property over every shape, and
// requires each to meet states of different histories under one key.
func TestKeyDeterminesEncoding(t *testing.T) {
	for b := uint8(0); b < 16; b++ {
		s := keyShapeOf(b)
		if !checkKeyDeterminesEncoding(t, s, int64(b)+1) {
			t.Errorf("%+v: no key was met at two clocks or done sets; the property is vacuous", s)
		}
	}
}

// FuzzKeyDeterminesEncoding lets the fuzzer pick the job, the episodes and
// the shape: states with equal packed keys must encode bit for bit alike.
func FuzzKeyDeterminesEncoding(f *testing.F) {
	for b := uint8(0); b < 16; b++ {
		f.Add(int64(b)+31, b)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		checkKeyDeterminesEncoding(t, keyShapeOf(shape), seed)
	})
}
