package nn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func newNet(t *testing.T, sizes ...int) *Network {
	t.Helper()
	n, err := New(sizes, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

// probsOf runs one single-row inference on a fresh scratch and returns a copy
// of the action distribution.
func probsOf(t *testing.T, n *Network, x []float64, mask []bool) []float64 {
	t.Helper()
	p, err := n.ProbsInto(n.NewScratch(), x, mask)
	if err != nil {
		t.Fatal(err)
	}
	return append([]float64(nil), p...)
}

// backpropCrossEntropy accumulates into g the gradient of
// -log softmax(logits)[target] at x: a one-row forward, then the one-row
// backward with dLogits = probs - onehot(target).
func backpropCrossEntropy(t *testing.T, n *Network, x []float64, mask []bool, target int, g *Grads) {
	t.Helper()
	s := n.NewScratch()
	probs, err := n.ProbsInto(s, x, mask)
	if err != nil {
		t.Fatal(err)
	}
	d := append([]float64(nil), probs...)
	d[target] -= 1
	if err := n.BackwardBatchInto(s, d, 1, g); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if _, err := New([]int{4}, r); !errors.Is(err, ErrBadShape) {
		t.Errorf("single layer err = %v", err)
	}
	if _, err := New([]int{4, 0, 2}, r); !errors.Is(err, ErrBadShape) {
		t.Errorf("zero layer err = %v", err)
	}
	n, err := New([]int{4, 8, 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	if n.InputSize() != 4 || n.OutputSize() != 2 {
		t.Errorf("sizes: in=%d out=%d", n.InputSize(), n.OutputSize())
	}
}

func TestForwardShapeAndDeterminism(t *testing.T) {
	n := newNet(t, 3, 5, 2)
	x := []float64{0.1, -0.2, 0.3}
	s := n.NewScratch()
	l1, err := n.ForwardBatchInto(s, x, 1)
	if err != nil {
		t.Fatal(err)
	}
	l1 = append([]float64(nil), l1...) // the scratch reuses its logits buffer
	l2, err := n.ForwardBatchInto(n.NewScratch(), x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(l1) != 2 {
		t.Fatalf("logits len = %d", len(l1))
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Errorf("forward not deterministic at %d", i)
		}
	}
	if _, err := n.ForwardBatchInto(s, []float64{1}, 1); !errors.Is(err, ErrBadInput) {
		t.Errorf("bad input err = %v", err)
	}
}

func TestSoftmax(t *testing.T) {
	p, err := SoftmaxInto([]float64{1, 1, 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range p {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Errorf("uniform softmax = %v", p)
		}
	}

	p, err = SoftmaxInto([]float64{5, 0, -5}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !(p[0] > p[1] && p[1] > p[2]) {
		t.Errorf("softmax not monotone: %v", p)
	}
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sum = %v", sum)
	}
}

func TestSoftmaxMask(t *testing.T) {
	p, err := SoftmaxInto([]float64{100, 1, 2}, []bool{false, true, true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != 0 {
		t.Errorf("masked entry prob = %v", p[0])
	}
	if math.Abs(p[1]+p[2]-1) > 1e-12 {
		t.Errorf("unmasked probs sum = %v", p[1]+p[2])
	}

	if _, err := SoftmaxInto([]float64{1, 2}, []bool{false, false}, nil); !errors.Is(err, ErrAllMasked) {
		t.Errorf("all masked err = %v", err)
	}
	if _, err := SoftmaxInto([]float64{1, 2}, []bool{true}, nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("short mask err = %v", err)
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	p, err := SoftmaxInto([]float64{1e4, 1e4 - 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(p[0]) || math.IsInf(p[0], 0) {
		t.Errorf("softmax overflowed: %v", p)
	}
}

// numericalGradient estimates d(loss)/d(param) by central differences,
// where loss = -log softmax(logits)[target] is evaluated by the naive oracle,
// so the gradient check is independent of the forward kernel too.
func numericalGradient(t *testing.T, n *Network, x []float64, target int, param *float64) float64 {
	t.Helper()
	const h = 1e-6
	loss := func() float64 { return -math.Log(naiveSoftmax(naiveLogits(n, x), nil)[target]) }
	orig := *param
	*param = orig + h
	up := loss()
	*param = orig - h
	down := loss()
	*param = orig
	return (up - down) / (2 * h)
}

func TestBackwardGradientCheck(t *testing.T) {
	n := newNet(t, 4, 6, 5, 3)
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 4)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	target := 1

	g := n.NewGrads()
	backpropCrossEntropy(t, n, x, nil, target, g)

	// Spot-check a handful of weights and biases in every layer.
	for l := range n.weights {
		for _, idx := range []int{0, len(n.weights[l]) / 2, len(n.weights[l]) - 1} {
			got := g.w[l][idx]
			want := numericalGradient(t, n, x, target, &n.weights[l][idx])
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Errorf("layer %d weight %d: analytic %g, numeric %g", l, idx, got, want)
			}
		}
		for _, idx := range []int{0, len(n.biases[l]) - 1} {
			got := g.b[l][idx]
			want := numericalGradient(t, n, x, target, &n.biases[l][idx])
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Errorf("layer %d bias %d: analytic %g, numeric %g", l, idx, got, want)
			}
		}
	}
}

func TestBackwardGradientCheckMasked(t *testing.T) {
	// The REINFORCE path differentiates -log softmax(logits)[a] where the
	// softmax is restricted to unmasked actions; verify the analytic
	// gradient (probs - onehot over the unmasked set) numerically.
	n := newNet(t, 3, 5, 4)
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, 3)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	mask := []bool{true, false, true, true}
	target := 2

	loss := func() float64 { return -math.Log(naiveSoftmax(naiveLogits(n, x), mask)[target]) }

	g := n.NewGrads()
	backpropCrossEntropy(t, n, x, mask, target, g)

	const h = 1e-6
	for l := range n.weights {
		for _, idx := range []int{0, len(n.weights[l]) - 1} {
			orig := n.weights[l][idx]
			n.weights[l][idx] = orig + h
			up := loss()
			n.weights[l][idx] = orig - h
			down := loss()
			n.weights[l][idx] = orig
			want := (up - down) / (2 * h)
			got := g.w[l][idx]
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Errorf("masked grad layer %d idx %d: analytic %g, numeric %g", l, idx, got, want)
			}
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	// Teach the net a fixed mapping x -> class and check the loss drops.
	n := newNet(t, 3, 16, 4)
	opt := RMSProp{LR: 1e-2, Rho: 0.9, Eps: 1e-8}
	x := []float64{0.5, -1, 0.25}
	target := 2

	loss := func() float64 { return -math.Log(probsOf(t, n, x, nil)[target]) }
	before := loss()
	g := n.NewGrads() // Apply hands it back zeroed, so one buffer serves every step
	for step := 0; step < 200; step++ {
		backpropCrossEntropy(t, n, x, nil, target, g)
		if err := n.Apply(g, opt); err != nil {
			t.Fatal(err)
		}
	}
	after := loss()
	if after >= before {
		t.Errorf("loss did not decrease: before %g, after %g", before, after)
	}
	if after > 0.1 {
		t.Errorf("loss after training = %g, want < 0.1", after)
	}
}

// TestGradsAddAndSamples pins what merges per-trajectory sums: SumBlock over
// two tapes holding the same row adds each tape's sum in turn, so every
// gradient comes out exactly twice the one-row gradient, the samples are the
// tapes' (rows and zero-gradient ones alike), and the scratch's partial sums
// come back zeroed for the next block.
func TestGradsAddAndSamples(t *testing.T) {
	n := newNet(t, 2, 3, 2)
	s := n.NewScratch()
	if _, err := n.ForwardBatchInto(s, []float64{1, -1}, 1); err != nil {
		t.Fatal(err)
	}
	one := n.NewGrads()
	if err := n.BackwardBatchInto(s, []float64{0.5, -0.5}, 1, one); err != nil {
		t.Fatal(err)
	}
	state := make([]float64, n.RowStateSize())
	n.SaveRow(s, 0, state)
	tapes := []*Tape{n.NewTape(), n.NewTape()}
	for _, tape := range tapes {
		d, err := n.PushRow(tape, state)
		if err != nil {
			t.Fatal(err)
		}
		copy(d, []float64{0.5, -0.5})
		n.Backprop(tape)
	}
	tapes[1].AddSamples(3)
	g := n.NewGrads()
	for b := 0; b < n.GradBlocks(); b++ {
		n.SumBlock(s, g, tapes, b)
	}
	for _, tape := range tapes {
		g.AddSamples(tape.Samples())
	}
	if g.Samples() != 5 {
		t.Errorf("Samples = %d, want 5: two rows and three zero-gradient samples", g.Samples())
	}
	for l := range g.w {
		for i := range g.w[l] {
			if g.w[l][i] != 2*one.w[l][i] {
				t.Errorf("layer %d weight %d: %g, want twice %g", l, i, g.w[l][i], one.w[l][i])
			}
		}
		for i := range g.b[l] {
			if g.b[l][i] != 2*one.b[l][i] {
				t.Errorf("layer %d bias %d: %g, want twice %g", l, i, g.b[l][i], one.b[l][i])
			}
		}
	}
	for i, v := range s.partW {
		if v != 0 {
			t.Errorf("SumBlock left %g at %d of its partial sums", v, i)
		}
	}
	for i, hit := range s.touched {
		if hit || s.partB[i] != 0 {
			t.Errorf("SumBlock left unit %d of its partial sums marked or non-zero", i)
		}
	}
}

func TestApplyEmptyBatch(t *testing.T) {
	n := newNet(t, 2, 2)
	if err := n.Apply(n.NewGrads(), DefaultRMSProp()); err == nil {
		t.Error("empty batch accepted")
	}
}

// TestApplyConsumesGrads pins the reuse contract: Apply zeroes the batch, so
// accumulating into the same Grads again equals accumulating into a new one.
func TestApplyConsumesGrads(t *testing.T) {
	n := newNet(t, 3, 6, 4)
	x := []float64{0.5, -1, 0.25}
	reused, fresh := n.NewGrads(), n.NewGrads()
	backpropCrossEntropy(t, n, x, nil, 1, reused)
	if err := n.Clone().Apply(reused, DefaultRMSProp()); err != nil {
		t.Fatal(err)
	}
	if reused.Samples() != 0 || reused.Norm() != 0 {
		t.Fatalf("after Apply: %d samples, norm %g; want an empty batch", reused.Samples(), reused.Norm())
	}
	if err := n.Apply(reused, DefaultRMSProp()); err == nil {
		t.Error("consumed batch applied twice")
	}
	backpropCrossEntropy(t, n, x, nil, 2, reused)
	backpropCrossEntropy(t, n, x, nil, 2, fresh)
	for l := range fresh.w {
		for i := range fresh.w[l] {
			if reused.w[l][i] != fresh.w[l][i] {
				t.Fatalf("layer %d weight %d: reused %g, fresh %g", l, i, reused.w[l][i], fresh.w[l][i])
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	n := newNet(t, 4, 8, 3)
	x := []float64{0.1, 0.2, 0.3, 0.4}
	want := probsOf(t, n, x, nil)

	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	got := probsOf(t, loaded, x, nil)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-15 {
			t.Errorf("prob %d: %g != %g", i, got[i], want[i])
		}
	}

	if _, err := Load(bytes.NewBufferString("junk")); err == nil {
		t.Error("corrupt model accepted")
	}
}

// TestLoadRejectsWhatTheKernelsCannotSkip hand-builds saved models that New
// and Apply never write: a NaN or infinite weight or bias, a -0.0 bias, a
// layer of no units, a layer whose weight count wraps an int to 0. The
// kernels skip zero inputs, which is exact only without the first three, and
// the last once passed the shape check and panicked allocating. Load refuses
// them all with an error naming the layer (and the index). A +0.0 bias loads.
func TestLoadRejectsWhatTheKernelsCannotSkip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name string
		edit func(st *networkState)
		want string // "" for a model that loads
	}{
		{"NaN weight", func(st *networkState) { st.Weights[1][5] = math.NaN() }, "layer 1 weight 5 is NaN"},
		{"+Inf weight", func(st *networkState) { st.Weights[0][0] = math.Inf(1) }, "layer 0 weight 0 is +Inf"},
		{"-Inf weight", func(st *networkState) { st.Weights[1][8] = math.Inf(-1) }, "layer 1 weight 8 is -Inf"},
		{"NaN bias", func(st *networkState) { st.Biases[0][2] = math.NaN() }, "layer 0 bias 2 is NaN"},
		{"-Inf bias", func(st *networkState) { st.Biases[1][0] = math.Inf(-1) }, "layer 1 bias 0 is -Inf"},
		{"-0 bias", func(st *networkState) { st.Biases[1][2] = negZero }, "layer 1 bias 2 is -0"},
		{"zero-width layer", func(st *networkState) {
			st.Sizes = []int{4, 0, 3}
			st.Weights = [][]float64{{}, {}}
			st.Biases = [][]float64{{}, {0, 0, 0}}
		}, "non-positive layer size"},
		{"weight count wraps to 0", func(st *networkState) { *st = wrappingState() }, "layer 0 has"},
		{"+0 bias and -0 weight", func(st *networkState) { st.Biases[1][2], st.Weights[0][1] = 0, negZero }, ""},
	} {
		n := newNet(t, 4, 3, 3)
		st := networkState{Sizes: n.sizes, Weights: n.weights, Biases: n.biases}
		tc.edit(&st)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v, want the model to load", tc.name, err)
		case tc.want != "" && (!errors.Is(err, ErrBadShape) || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want ErrBadShape naming %q", tc.name, err, tc.want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	n := newNet(t, 2, 4, 2)
	c := n.Clone()
	x := []float64{1, 2}

	g := c.NewGrads()
	backpropCrossEntropy(t, c, x, nil, 0, g)
	if err := c.Apply(g, RMSProp{LR: 0.1, Rho: 0.9, Eps: 1e-8}); err != nil {
		t.Fatal(err)
	}

	p1, p2 := probsOf(t, n, x, nil), probsOf(t, c, x, nil)
	same := true
	for i := range p1 {
		if p1[i] != p2[i] {
			same = false
		}
	}
	if same {
		t.Error("training the clone did not change it relative to the original")
	}
}

func TestDefaultRMSPropMatchesPaper(t *testing.T) {
	opt := DefaultRMSProp()
	if opt.LR != 1e-4 || opt.Rho != 0.9 || opt.Eps != 1e-9 {
		t.Errorf("DefaultRMSProp = %+v, want lr=1e-4 rho=0.9 eps=1e-9", opt)
	}
}
