package simenv

import (
	"testing"

	"spear/internal/cluster"
	"spear/internal/resource"
)

// TestStateHashCanonicalAcrossOrders pins the transposition property the
// MCTS table relies on: scheduling two independent ready tasks in either
// order (no clock movement in between) reaches the same state and therefore
// the same hash, while genuinely different states hash differently.
func TestStateHashCanonicalAcrossOrders(t *testing.T) {
	g := fanout(t) // root -> {a, b, c}; a=task1, b=task2 fit together
	mk := func() *Env {
		e := mustEnv(t, g, resource.Of(10, 10), Config{})
		if err := e.Step(At(0, 0)); err != nil { // run root
			t.Fatal(err)
		}
		if err := e.Step(Process); err != nil { // a, b, c become ready
			t.Fatal(err)
		}
		return e
	}
	ab := mk()
	if err := ab.Step(At(0, 0)); err != nil { // schedule a
		t.Fatal(err)
	}
	if err := ab.Step(At(0, 0)); err != nil { // then b (slots shift)
		t.Fatal(err)
	}
	ba := mk()
	if err := ba.Step(At(1, 0)); err != nil { // schedule b
		t.Fatal(err)
	}
	if err := ba.Step(At(0, 0)); err != nil { // then a
		t.Fatal(err)
	}
	if ab.StateHash() != ba.StateHash() {
		t.Errorf("order a,b hash %#x, order b,a hash %#x — same state must hash equal",
			ab.StateHash(), ba.StateHash())
	}
	onlyA := mk()
	if err := onlyA.Step(At(0, 0)); err != nil {
		t.Fatal(err)
	}
	if onlyA.StateHash() == ab.StateHash() {
		t.Error("different states (a vs a+b running) share a hash")
	}
}

// TestStateHashDistinguishesMachines checks the occupancy signature is
// per-machine: the same task running on machine 0 vs machine 1 must hash
// differently, because downstream placements see different free capacity.
func TestStateHashDistinguishesMachines(t *testing.T) {
	g := chain(t)
	spec := cluster.Uniform(2, resource.Of(4))
	m0, err := NewCluster(g, spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m1 := m0.Clone()
	if m0.StateHash() != m1.StateHash() {
		t.Fatal("clone changed the state hash")
	}
	if err := m0.Step(At(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := m1.Step(At(0, 1)); err != nil {
		t.Fatal(err)
	}
	if m0.StateHash() == m1.StateHash() {
		t.Error("task on machine 0 and machine 1 share a hash")
	}
}

// TestStateHashCloneInto checks CloneInto carries every hashed part of the
// state, including into a recycled destination that held a different
// episode before.
func TestStateHashCloneInto(t *testing.T) {
	e := mustEnv(t, fanout(t), resource.Of(10, 10), Config{})
	if err := e.Step(At(0, 0)); err != nil {
		t.Fatal(err)
	}
	scratch := mustEnv(t, chain(t), resource.Of(2), Config{})
	got := e.CloneInto(scratch)
	if got.StateHash() != e.StateHash() {
		t.Errorf("CloneInto hash %#x, source %#x", got.StateHash(), e.StateHash())
	}
}
