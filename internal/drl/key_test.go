package drl

import (
	"encoding/binary"
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
	// capacity is the total capacity of every dimension, to which the job's
	// demands are scaled, or 0 to keep the job's own.
	capacity int64
	tasks    int
	// lane is the lane keyLane must pick for the shape's job.
	lane int
}

// keyCapacities are the totals a shape's cluster can take, each with the
// lane its occupancy needs: the job's own (20 a machine), both sides of
// every lane boundary, and MaxInt64, where occupancy sums pass 2⁵³.
var keyCapacities = [8]struct {
	total int64
	lane  int
}{{0, 8}, {1<<8 - 1, 8}, {1 << 8, 16}, {1<<16 - 1, 16}, {1 << 16, 32}, {1<<32 - 1, 32}, {1 << 32, 64}, {math.MaxInt64, 64}}

// keyTasks are the job sizes a shape can take, each with the lane its ids
// need: a visible id plus one is at most the number of tasks.
var keyTasks = [4]struct{ n, lane int }{{12, 8}, {255, 8}, {256, 16}, {12, 8}}

// keyShapeOf decodes b: bit 0 picks one or four machines, bit 1 Window 3
// (so that ready tasks back up behind it) or 15, bit 2 the process mode,
// bits 3–5 the capacity and bits 6–7 the job size.
func keyShapeOf(b uint8) keyShape {
	c, n := keyCapacities[b>>3&7], keyTasks[b>>6]
	s := keyShape{machines: 1, window: 3, mode: simenv.NextCompletion, capacity: c.total, tasks: n.n, lane: max(c.lane, n.lane)}
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

// scaleToTotal returns g with every demand multiplied by the factor that
// takes a machine of the given capacity to total/machines, and a cluster of
// that many machines whose capacities sum to total in every dimension, the
// last machine taking the remainder.
func scaleToTotal(t testing.TB, g *dag.Graph, capacity resource.Vector, machines int, total int64) (*dag.Graph, cluster.Spec) {
	t.Helper()
	perMachine := total / int64(machines)
	factor := make([]int64, g.Dims())
	for d := range factor {
		factor[d] = perMachine / capacity[d]
	}
	spec := cluster.Uniform(machines, resource.Uniform(g.Dims(), perMachine))
	last := spec[machines-1].Capacity
	for d := range last {
		last[d] = total - int64(machines-1)*perMachine
	}
	return scaleDemands(t, g, factor), spec
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
// groups the states met by the key packState gives them at the lane keyLane
// picks, which must be the shape's. Within a group the Encode outputs must
// be bit-equal, and the packing must lose nothing: two states' keys must be
// equal at that lane exactly when they are at 64 bits, one value a word. It
// reports whether some group holds states whose clocks or done sets differ,
// which is what makes the property say something.
func checkKeyDeterminesEncoding(t testing.TB, s keyShape, seed int64) (spans bool) {
	t.Helper()
	feat := Features{Window: s.window, Horizon: 8, Dims: 2}
	jobs, capacity := testJobs(t, 1, s.tasks, seed)
	g, spec := jobs[0], cluster.Uniform(s.machines, capacity)
	if s.capacity != 0 {
		g, spec = scaleToTotal(t, g, capacity, s.machines, s.capacity)
	}
	base, err := simenv.NewCluster(g, spec, simenv.Config{Window: s.window, Mode: s.mode})
	if err != nil {
		t.Fatal(err)
	}
	lane := keyLane(base)
	if lane != s.lane {
		t.Fatalf("%+v: key lane %d, want %d", s, lane, s.lane)
	}
	type first struct {
		x    []float64
		now  int64
		done string
		wide string
	}
	groups, narrow := map[string]first{}, map[string]string{}
	key, wide := make([]uint64, feat.stateWords(lane)), make([]uint64, feat.stateWords(64))
	rng := rand.New(rand.NewSource(seed))
	for ep := 0; ep < 24; ep++ {
		for e := base.Clone(); !e.Done(); {
			legal := e.LegalActions()
			feat.packState(e, legal, key, lane)
			feat.packState(e, legal, wide, 64)
			x := feat.Encode(e, nil)
			done := make([]byte, g.NumTasks())
			for id := range done {
				if e.TaskDone(dag.TaskID(id)) {
					done[id] = 1
				}
			}
			k, w := keyString(key), keyString(wide)
			if f, ok := groups[k]; !ok {
				groups[k] = first{x: x, now: e.Now(), done: string(done), wide: w}
			} else {
				if !sameBits(x, f.x) {
					t.Fatalf("%+v seed %d: key %v encodes as %v and as %v", s, seed, key, f.x, x)
				}
				if w != f.wide {
					t.Fatalf("%+v seed %d: %d-bit key %v packs both %v and %v", s, seed, lane, key, f.wide, w)
				}
				spans = spans || f.now != e.Now() || f.done != string(done)
			}
			if prev, ok := narrow[w]; ok && prev != k {
				t.Fatalf("%+v seed %d: 64-bit key %v packs as both %v and %v at %d bits", s, seed, wide, prev, k, lane)
			}
			narrow[w] = k
			if err := e.Step(legal[rng.Intn(len(legal))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return spans
}

// keyString returns key's words as a map key.
func keyString(key []uint64) string {
	b := make([]byte, 0, 8*len(key))
	for _, w := range key {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return string(b)
}

// keyShapesUnderTest are the shapes TestKeyDeterminesEncoding runs: every
// machine count, window, mode and capacity on 12-task jobs, and the jobs of
// 255 and 256 tasks on four of the small shapes, the ones on four machines
// at the capacity of their own lane boundary (2⁸−1 and 2⁸).
func keyShapesUnderTest() []uint8 {
	var shapes []uint8
	for b := uint8(0); b < 64; b++ {
		shapes = append(shapes, b)
	}
	for tasks := uint8(1); tasks <= 2; tasks++ {
		for _, low := range []uint8{0, 3, 5, 6} {
			capacity := uint8(0)
			if low&1 != 0 {
				capacity = tasks // 2⁸−1 or 2⁸
			}
			shapes = append(shapes, tasks<<6|capacity<<3|low)
		}
	}
	return shapes
}

// TestKeyDeterminesEncoding runs the key property over keyShapesUnderTest,
// and requires each to meet states of different histories under one key.
func TestKeyDeterminesEncoding(t *testing.T) {
	for _, b := range keyShapesUnderTest() {
		s := keyShapeOf(b)
		if !checkKeyDeterminesEncoding(t, s, int64(b)+1) {
			t.Errorf("%+v: no key was met at two clocks or done sets; the property is vacuous", s)
		}
	}
}

// FuzzKeyDeterminesEncoding lets the fuzzer pick the job, the episodes and
// the shape: states with equal packed keys must encode bit for bit alike.
func FuzzKeyDeterminesEncoding(f *testing.F) {
	for _, b := range keyShapesUnderTest() {
		f.Add(int64(b)+31, b)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		checkKeyDeterminesEncoding(t, keyShapeOf(shape), seed)
	})
}
