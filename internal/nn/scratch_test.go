package nn

import (
	"errors"
	"testing"
)

// TestProbsIntoMatchesProbs checks the one-row call against the naive
// oracle's probabilities, bit for bit.
func TestProbsIntoMatchesProbs(t *testing.T) {
	n := newNet(t, 3, 5, 4)
	s := n.NewScratch()
	x := []float64{0.3, -0.7, 1.1}
	mask := []bool{true, false, true, true}
	want := naiveSoftmax(naiveLogits(n, x), mask)
	got, err := n.ProbsInto(s, x, mask)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("prob %d: ProbsInto %g, oracle %g", i, got[i], want[i])
		}
	}
	if _, err := n.ProbsInto(s, []float64{1}, mask); !errors.Is(err, ErrBadInput) {
		t.Errorf("bad input err = %v", err)
	}
	if _, err := n.ProbsInto(s, x, []bool{true}); !errors.Is(err, ErrBadInput) {
		t.Errorf("short mask err = %v", err)
	}
	// The returned slice is the scratch's own buffer, reused on every call.
	again, err := n.ProbsInto(s, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &got[0] {
		t.Error("ProbsInto did not reuse the scratch probs buffer")
	}
}

func TestScratchRejectsForeignNetwork(t *testing.T) {
	a := newNet(t, 3, 5, 2)
	b := newNet(t, 3, 4, 2)
	s := b.NewScratch()
	if _, err := a.ProbsInto(s, []float64{1, 2, 3}, nil); !errors.Is(err, ErrBadShape) {
		t.Errorf("scratch from a different topology: err = %v", err)
	}
	if err := a.BackwardBatchInto(s, []float64{1, 2}, 1, a.NewGrads()); !errors.Is(err, ErrBadShape) {
		t.Errorf("backward on a foreign scratch: err = %v", err)
	}
}

func TestSoftmaxIntoMatchesSoftmax(t *testing.T) {
	logits := []float64{1.5, -0.5, 0.25, 3}
	mask := []bool{true, true, false, true}
	want := naiveSoftmax(logits, mask)
	out := make([]float64, len(logits))
	for i := range out {
		out[i] = 99 // stale garbage the call must overwrite, including masked slots
	}
	got, err := SoftmaxInto(logits, mask, out)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &out[0] {
		t.Error("SoftmaxInto did not reuse the provided buffer")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("prob %d: SoftmaxInto %g, oracle %g", i, got[i], want[i])
		}
	}
}

func TestAddSamples(t *testing.T) {
	n := newNet(t, 2, 2)
	g := n.NewGrads()
	g.AddSamples(3)
	if g.Samples() != 3 {
		t.Errorf("Samples = %d, want 3", g.Samples())
	}
	g.AddSamples(1)
	if g.Samples() != 4 {
		t.Errorf("Samples = %d, want 4", g.Samples())
	}
}

// TestForwardIntoZeroAllocs gates the one-row case: NewScratch pre-sizes for
// one row, so a forward pass and masked softmax into a scratch must not touch
// the heap even on the very first call.
func TestForwardIntoZeroAllocs(t *testing.T) {
	n := newNet(t, 10, 16, 8, 4)
	s := n.NewScratch()
	x := make([]float64, 10)
	mask := make([]bool, 4)
	for i := range mask {
		mask[i] = true
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := n.ForwardBatchInto(s, x, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("one-row ForwardBatchInto allocates %.1f times per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := n.ProbsInto(s, x, mask); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ProbsInto allocates %.1f times per run, want 0", allocs)
	}
}

// TestBackwardIntoZeroAllocs gates one-row backprop into a Grads.
func TestBackwardIntoZeroAllocs(t *testing.T) {
	n := newNet(t, 10, 16, 8, 4)
	s := n.NewScratch()
	g := n.NewGrads()
	x := make([]float64, 10)
	d := make([]float64, 4)
	d[0] = 1
	if _, err := n.ForwardBatchInto(s, x, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := n.BackwardBatchInto(s, d, 1, g); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("one-row BackwardBatchInto allocates %.1f times per run, want 0", allocs)
	}
}
