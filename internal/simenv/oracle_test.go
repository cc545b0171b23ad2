package simenv

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/resource"
)

// checkAgainstScans compares everything the Env maintains incrementally
// with the from-scratch scans of export_test.go.
func checkAgainstScans(t *testing.T, e *Env, what string) {
	t.Helper()
	running := slices.Clone(e.running)
	slices.Sort(running)
	if want := e.scanRunning(); !slices.Equal(running, want) || e.NumRunning() != len(want) {
		t.Fatalf("%s: running list %v, statuses say %v", what, running, want)
	}
	if cap(e.running) < e.g.NumTasks() {
		t.Fatalf("%s: running list holds %d, graph has %d tasks", what, cap(e.running), e.g.NumTasks())
	}
	got, gotOK := e.EarliestRunningFinish()
	if want, wantOK := e.scanEarliestFinish(); got != want || gotOK != wantOK {
		t.Fatalf("%s: earliest running finish %d/%v, scan %d/%v", what, got, gotOK, want, wantOK)
	}
	if got, want := e.Makespan(), e.scanMakespan(); got != want {
		t.Fatalf("%s: Makespan %d, scan %d", what, got, want)
	}
	if got, want := e.LegalActionsInto(nil), e.scanLegal(); !slices.Equal(got, want) {
		t.Fatalf("%s: legal actions %v, occupancy rebuilt from the placements gives %v", what, got, want)
	}
	checkOccupancy(t, e, what)
}

// checkOccupancy compares OccupancyInto, FillOccupancy, AvailableNowInto and
// the Cluster snapshot's rows with the occupancy scanned from the
// placements, and the snapshot's FitsAt with the legal actions. The integer
// image must be the machines' occupancies summed, and the float image that
// sum over the total capacity, bit for bit; asked for one dimension more
// than the cluster has, each writes only the cluster's dimensions.
func checkOccupancy(t *testing.T, e *Env, what string) {
	t.Helper()
	// The short horizon is shorter than the longest runtime, so some
	// finishes fall past it; the long one spans FillOccupancy's chunks.
	for _, horizon := range []int{6, 2*occupancyChunk + 3} {
		checkOccupancyImage(t, e, what, horizon)
	}
	occ := e.scanOccupancy(6)
	snapshot := e.Cluster()
	for m := range occ {
		for k, want := range occ[m] {
			if got := snapshot.Machine(m).UsedAt(e.now + int64(k)); !got.Equal(want) {
				t.Fatalf("%s: Cluster() machine %d at now+%d holds %v, scan %v", what, m, k, got, want)
			}
		}
	}
	legal := e.LegalActionsInto(nil)
	for i := 0; i < e.NumVisible(); i++ {
		task := e.g.Task(e.VisibleTask(i))
		for m := range e.spec {
			if fits := snapshot.FitsAt(m, e.now, task.Demand, task.Runtime); fits != slices.Contains(legal, At(i, m)) {
				t.Fatalf("%s: Cluster() snapshot says task %d fits machine %d: %v; legal actions %v", what, task.ID, m, fits, legal)
			}
		}
	}
	free := e.total.Clone()
	for m := range occ {
		free, _ = free.Sub(occ[m][0])
	}
	if got := e.AvailableNowInto(resource.Of(7)); !got.Equal(append(resource.Of(7), free...)) {
		t.Fatalf("%s: AvailableNowInto after [7] = %v, scan %v", what, got, free)
	}
}

// checkOccupancyImage is checkOccupancy's comparison of FillOccupancy, and
// of OccupancyInto at every lane that holds the total capacity, over the
// given horizon. Each packed image is unpacked lane by lane: the lanes of the
// horizon must hold the scanned sums, the lanes past it in a dimension's
// last word zero, and the words past the cluster's dimensions what they held.
func checkOccupancyImage(t *testing.T, e *Env, what string, horizon int) {
	t.Helper()
	occ := e.scanOccupancy(horizon)
	dims := len(e.total)
	sums := make([]int64, dims*horizon)
	img := make([]float64, (dims+1)*horizon)
	for i := range img {
		img[i] = -1
	}
	e.FillOccupancy(horizon, dims+1, img)
	for d := 0; d < dims; d++ {
		for k := 0; k < horizon; k++ {
			sum := &sums[d*horizon+k]
			for m := range occ {
				*sum += occ[m][k][d]
			}
			want := float64(*sum) / float64(e.total[d])
			if got := img[d*horizon+k]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: FillOccupancy dim %d slot %d = %v, scan %v", what, d, k, got, want)
			}
		}
	}
	for i := dims * horizon; i < len(img); i++ {
		if img[i] != -1 {
			t.Fatalf("%s: FillOccupancy wrote past the cluster's %d dims: %v", what, dims, img)
		}
	}
	const untouched = 0xDEADBEEFDEADBEEF
	for _, lane := range []int{8, 16, 32, 64} {
		if lane < 64 && slices.Max(e.total)>>lane != 0 {
			continue
		}
		words, perWord := PackedWords(horizon, lane), 64/lane
		packed := make([]uint64, (dims+1)*words)
		for i := range packed {
			packed[i] = untouched
		}
		e.OccupancyInto(horizon, dims+1, lane, packed)
		for d := 0; d < dims; d++ {
			for k := 0; k < words*perWord; k++ {
				got := packed[d*words+k/perWord] >> (k % perWord * lane) & (^uint64(0) >> (64 - lane))
				var want uint64
				if k < horizon {
					want = uint64(sums[d*horizon+k])
				}
				if got != want {
					t.Fatalf("%s: OccupancyInto at %d bits, dim %d lane %d = %d, want %d (horizon %d)", what, lane, d, k, got, want, horizon)
				}
			}
		}
		for i := dims * words; i < len(packed); i++ {
			if packed[i] != untouched {
				t.Fatalf("%s: OccupancyInto at %d bits wrote past the cluster's %d dims: %#x", what, lane, dims, packed)
			}
		}
	}
}

// cpChoice is the CP baseline's rule (largest b-level, then most children,
// then lowest ID; Process only when nothing fits), which packs every machine
// as full as it gets where a random walk leaves them mostly idle.
func cpChoice(e *Env, legal []Action) Action {
	best := Process
	for _, a := range legal {
		if a == Process {
			continue
		}
		if best == Process {
			best = a
			continue
		}
		ta, tb := e.VisibleTask(a.Slot()), e.VisibleTask(best.Slot())
		ba, bb := e.g.BLevel(ta), e.g.BLevel(tb)
		ca, cb := e.g.NumChildren(ta), e.g.NumChildren(tb)
		if ba > bb || ba == bb && (ca > cb || ca == cb && ta < tb) {
			best = a
		}
	}
	return best
}

// dirtyEnv returns a CloneInto destination left over from another episode:
// a different graph (smaller or larger than n tasks), another cluster shape,
// stopped halfway so that its ready and running lists are populated.
func dirtyEnv(t *testing.T, r *rand.Rand, n int) *Env {
	t.Helper()
	g := randomGraph(r, 2+r.Intn(2*n))
	e, err := NewCluster(g, cluster.Uniform(1+r.Intn(3), resource.Of(6, 6)), Config{Mode: OneSlot})
	if err != nil {
		t.Fatal(err)
	}
	playSteps(t, e, g.NumTasks(), r)
	return e
}

// playOracleEpisode plays one episode, random or by the CP rule, and checks
// it against the scans after every step: the running list, the earliest
// finish, the makespan, the hash, the legal actions, the occupancy image,
// the free capacity, the Cluster snapshot, and the ready queue the old
// completion sweep would have produced. At step cloneAt the episode is
// cloned onto a dirty destination, and from there on the clone takes the
// same actions and must stay indistinguishable from the original.
func playOracleEpisode(t *testing.T, seed int64, machines int, mode ProcessMode, window, cloneAt int, cp bool) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	g := randomGraph(r, 3+r.Intn(40))
	e, err := NewCluster(g, cluster.Uniform(machines, resource.Of(5+r.Int63n(6), 5+r.Int63n(6))), Config{Window: window, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstScans(t, e, "fresh episode")
	var twin *Env
	for step := 0; !e.Done(); step++ {
		if step == cloneAt {
			twin = e.CloneInto(dirtyEnv(t, r, g.NumTasks()))
		}
		legal := e.LegalActions()
		if len(legal) == 0 {
			t.Fatalf("step %d: stuck episode", step)
		}
		a := legal[r.Intn(len(legal))]
		if cp {
			a = cpChoice(e, legal)
		}
		wantReady := e.scanReadyAfter(a)
		for _, env := range []*Env{e, twin} {
			if env == nil {
				continue
			}
			if err := env.Step(a); err != nil {
				t.Fatalf("step %d action %d: %v", step, a, err)
			}
			checkAgainstScans(t, env, "after step")
			if !slices.Equal(env.ready, wantReady) {
				t.Fatalf("step %d action %d: ready queue %v, sweep by status gives %v", step, a, env.ready, wantReady)
			}
		}
		if twin != nil {
			envsEqual(t, e, twin)
			if e.StateHash() != twin.StateHash() || e.Makespan() != twin.Makespan() {
				t.Fatalf("step %d: clone diverged: hash %#x/%#x makespan %d/%d",
					step, e.StateHash(), twin.StateHash(), e.Makespan(), twin.Makespan())
			}
		}
	}
	for id := dag.TaskID(0); int(id) < g.NumTasks(); id++ {
		if !e.TaskDone(id) {
			t.Fatalf("episode over with task %d not done", id)
		}
	}
}

// TestOccupancySumsMachinesInOrder: at 2^60 a float64 step is 256, so
// 2^60 + 128 + 128 rounds to 2^60 summed in machine order and to 2^60 + 256
// from the other end. The image must take the machine order.
func TestOccupancySumsMachinesInOrder(t *testing.T) {
	b := dag.NewBuilder(1)
	for _, demand := range []int64{1 << 60, 128, 128} {
		b.AddTask("t", 3, resource.Of(demand))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewCluster(g, cluster.Uniform(3, resource.Of(1<<60)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 3; m++ {
		if err := e.Step(At(0, m)); err != nil {
			t.Fatal(err)
		}
	}
	checkOccupancy(t, e, "three tasks on three machines")
}

func TestEpisodeOracle(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		for _, machines := range []int{1, 4} {
			for _, mode := range []ProcessMode{NextCompletion, OneSlot} {
				for _, window := range []int{0, DefaultWindow} {
					playOracleEpisode(t, seed, machines, mode, window, int(seed)*3, false)
					playOracleEpisode(t, seed, machines, mode, window, int(seed)*3, true)
				}
			}
		}
	}
}

// FuzzEpisodeOracle lets the fuzzer pick the episode (seed), the cluster,
// mode, window and policy (the low bits of shape) and where the clone is
// taken.
func FuzzEpisodeOracle(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(7), uint8(5), uint8(9))
	f.Add(int64(-3), uint8(7), uint8(40))
	f.Add(int64(11), uint8(9), uint8(4))
	f.Add(int64(5), uint8(15), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, shape, cloneAt uint8) {
		machines, mode, window := 1, NextCompletion, 0
		if shape&1 != 0 {
			machines = 4
		}
		if shape&2 != 0 {
			mode = OneSlot
		}
		if shape&4 != 0 {
			window = DefaultWindow
		}
		playOracleEpisode(t, seed, machines, mode, window, int(cloneAt), shape&8 != 0)
	})
}
