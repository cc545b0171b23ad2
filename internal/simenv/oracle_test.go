package simenv

import (
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
// finish, the makespan, the hash, the legal actions, and the ready queue the
// old completion sweep would have produced. At step cloneAt the episode is
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
