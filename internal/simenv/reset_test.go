package simenv

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/obs"
	"spear/internal/resource"
)

// TestResetMatchesNewCluster reuses one Env for a run of jobs of different
// sizes on changing clusters, configurations and metrics, leaving episodes
// finished or abandoned halfway, with failed Resets in between, and plays
// every episode in step with one NewCluster built: state hash, legal
// actions and the final schedule must not tell them apart.
func TestResetMatchesNewCluster(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	specs := []cluster.Spec{
		cluster.Single(resource.Of(8, 8)),
		cluster.Uniform(4, resource.Of(6, 6)),
		cluster.Uniform(4, resource.Of(6, 6)), // equal to the last one, in other memory
		{{Name: "big", Capacity: resource.Of(9, 9)}, {Name: "small", Capacity: resource.Of(5, 5)}},
	}
	b := dag.NewBuilder(2)
	b.AddTask("whale", 3, resource.Of(50, 1))
	whale, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewSimMetrics(nil)

	reused := new(Env)
	for round := 0; round < 40; round++ {
		g := randomGraph(r, 3+r.Intn(40))
		spec := specs[r.Intn(len(specs))]
		cfg := Config{Window: []int{0, DefaultWindow, 3}[r.Intn(3)], Mode: []ProcessMode{0, NextCompletion, OneSlot}[r.Intn(3)]}
		if r.Intn(2) == 0 {
			cfg.Metrics = metrics
		}
		if round > 0 && round%3 == 0 {
			// A Reset that fails changes nothing: not the episode in progress,
			// and not what the next Reset builds.
			before := reused.Clone()
			if _, err := reused.Reset(whale, spec, cfg); !errors.Is(err, ErrInfeasible) {
				t.Fatalf("round %d: Reset with an oversized task: %v, want ErrInfeasible", round, err)
			}
			if _, err := reused.Reset(g, spec, Config{Window: -1}); err == nil {
				t.Fatalf("round %d: Reset accepted a negative window", round)
			}
			if _, err := reused.Reset(g, cluster.Spec{}, cfg); !errors.Is(err, cluster.ErrEmptySpec) {
				t.Fatalf("round %d: Reset on an empty spec: %v, want ErrEmptySpec", round, err)
			}
			envsEqual(t, before, reused)
		}

		fresh, err := NewCluster(g, spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e, err := reused.Reset(g, spec, cfg)
		if err != nil || e != reused {
			t.Fatalf("round %d: Reset = %p, %v; want the receiver %p", round, e, err, reused)
		}
		checkAgainstScans(t, e, "after Reset")
		steps := 1 << 30
		if round%2 == 1 {
			steps = r.Intn(2 * g.NumTasks()) // abandon this one mid-episode
		}
		for i := 0; ; i++ {
			envsEqual(t, fresh, e)
			if fresh.StateHash() != e.StateHash() || fresh.Makespan() != e.Makespan() {
				t.Fatalf("round %d step %d: hash %#x/%#x makespan %d/%d", round, i,
					fresh.StateHash(), e.StateHash(), fresh.Makespan(), e.Makespan())
			}
			if i == steps || fresh.Done() {
				break
			}
			legal := fresh.LegalActions()
			a := legal[r.Intn(len(legal))]
			if err := errors.Join(fresh.Step(a), e.Step(a)); err != nil {
				t.Fatalf("round %d step %d: %v", round, i, err)
			}
		}
		if !fresh.Done() {
			continue
		}
		want, err := fresh.Schedule("x")
		if err != nil {
			t.Fatal(err)
		}
		if got, err := e.Schedule("x"); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: schedule %+v, %v; NewCluster's episode gives %+v", round, got, err, want)
		}
	}
}

// TestWarmResetAllocatesNothing: a Reset on a spec equal to the last one
// keeps the spec copy and every slice, so planning job after job on one Env
// touches the heap only while its slices grow to the largest job.
func TestWarmResetAllocatesNothing(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), 30)
	spec := cluster.Uniform(4, resource.Of(6, 6))
	e, err := NewCluster(g, spec, Config{Metrics: obs.NewSimMetrics(nil)})
	if err != nil {
		t.Fatal(err)
	}
	playSteps(t, e, 1<<30, rand.New(rand.NewSource(4)))
	equal := cluster.Uniform(4, resource.Of(6, 6)) // in other memory
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.Reset(g, equal, Config{Window: DefaultWindow}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Reset allocates %.1f times per run, want 0", allocs)
	}
}

// TestResetRejectsMoreMachinesThanActionsEncode: an action addresses the
// last machine of the largest cluster a spec may describe, and one machine
// more is refused at Reset instead of wrapping the packed machine index
// negative mid-episode.
func TestResetRejectsMoreMachinesThanActionsEncode(t *testing.T) {
	last := At(1, cluster.MaxMachines-1)
	if last.Slot() != 1 || last.Machine() != cluster.MaxMachines-1 {
		t.Fatalf("At(1, %d) decodes to slot %d, machine %d", cluster.MaxMachines-1, last.Slot(), last.Machine())
	}
	b := dag.NewBuilder(1)
	b.AddTask("x", 2, resource.Of(1))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCluster(g, cluster.Uniform(cluster.MaxMachines+1, resource.Of(1)), Config{}); !errors.Is(err, cluster.ErrTooManyMachines) {
		t.Fatalf("%d machines: err = %v, want ErrTooManyMachines", cluster.MaxMachines+1, err)
	}
}
