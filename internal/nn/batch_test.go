package nn

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomBatch fills a row-major batch and per-row masks (one random masked
// entry per row, never all masked).
func randomBatch(rng *rand.Rand, rows, in, out int) (x []float64, masks []bool) {
	x = make([]float64, rows*in)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	masks = make([]bool, rows*out)
	for r := 0; r < rows; r++ {
		for j := 0; j < out; j++ {
			masks[r*out+j] = true
		}
		masks[r*out+rng.Intn(out)] = false
	}
	return x, masks
}

// rowKinds are the input rows the oracle comparison cycles through: every
// density the forward kernel treats differently, named by what it exercises.
// Each fills x, which arrives zeroed.
var rowKinds = []struct {
	name string
	fill func(rng *rand.Rand, x []float64)
}{
	{"all-zero", func(*rand.Rand, []float64) {}},
	{"density 0.05", func(rng *rand.Rand, x []float64) { fillNonZero(rng, x, (len(x)+19)/20) }},
	{"density 0.2", func(rng *rand.Rand, x []float64) { fillNonZero(rng, x, (len(x)+4)/5) }},
	// len/2 non-zeros is the densest row that is still gathered, one more
	// the sparsest that takes the dense loop.
	{"half non-zero", func(rng *rand.Rand, x []float64) { fillNonZero(rng, x, len(x)/2) }},
	{"just over half", func(rng *rand.Rand, x []float64) { fillNonZero(rng, x, min(len(x)/2+1, len(x))) }},
	{"dense", func(rng *rand.Rand, x []float64) { fillNonZero(rng, x, len(x)) }},
	{"sparse with -0", func(rng *rand.Rand, x []float64) {
		fillNonZero(rng, x, len(x)/4)
		negateZeros(rng, x)
	}},
	{"dense with -0", func(rng *rand.Rand, x []float64) {
		fillNonZero(rng, x, len(x)-len(x)/4)
		negateZeros(rng, x)
	}},
}

// fillNonZero sets k randomly placed entries of x to non-zero values.
func fillNonZero(rng *rand.Rand, x []float64, k int) {
	for _, i := range rng.Perm(len(x))[:k] {
		for x[i] == 0 {
			x[i] = rng.NormFloat64()
		}
	}
}

// negateZeros turns about half of x's zeros into -0.
func negateZeros(rng *rand.Rand, x []float64) {
	for i, v := range x {
		if v == 0 && rng.Intn(2) == 0 {
			x[i] = math.Copysign(0, -1)
		}
	}
}

// kernelNames lists the forward kernels this build runs on this CPU: the
// pure-Go one always, the AVX2 one where the CPU has it.
func kernelNames() []string {
	if haveAVX2 {
		return []string{"go", "avx2"}
	}
	return []string{"go"}
}

// withKernel runs f with the named forward kernel, then restores the default.
func withKernel(name string, f func()) {
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	useAVX2 = name == "avx2"
	f()
}

// setParams lets a test write n's weights and biases directly, then rederives
// the vector kernel's packed copy from them, as every writer of the network
// does.
func setParams(n *Network, set func(weights, biases [][]float64)) {
	set(n.weights, n.biases)
	n.repack()
}

// sameAsOracle fails t unless logits, row-major rows of OutputSize, are the
// naive oracle's logits of the rows of x, bit for bit. Both sides accumulate
// in the same order and a skipped term is an exact zero, so equality is
// exact.
func sameAsOracle(t *testing.T, what string, n *Network, x, logits []float64) {
	t.Helper()
	in, out := n.InputSize(), n.OutputSize()
	if len(logits) != len(x)/in*out {
		t.Fatalf("%s: got %d logits, want %d", what, len(logits), len(x)/in*out)
	}
	for r := 0; r < len(x)/in; r++ {
		want := naiveLogits(n, x[r*in:(r+1)*in])
		for j := range want {
			if math.Float64bits(logits[r*out+j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: row %d logit %d: kernel %g, oracle %g", what, r, j, logits[r*out+j], want[j])
			}
		}
	}
}

// TestForwardBatchIntoMatchesNaive compares every row of each kernel against
// the naive oracle, bit for bit: on the paper's shape, on widths covering
// every remainder of the four-output grouping and widths on both sides of
// one and two 32-unit blocks, with rows of every kind mixed in one batch, at
// batch sizes on both sides of the row block.
func TestForwardBatchIntoMatchesNaive(t *testing.T) {
	shapes := [][]int{
		{7, 12, 9, 5},
		{147, 256, 32, 32, 16},
		{9, 4, 1}, {9, 5, 2}, {9, 6, 3}, {9, 7, 4},
		{1, 1}, {2, 3, 3},
		{9, 31, 32}, {40, 33, 64}, {65, 65, 16}, {64, 64, 33},
	}
	for _, kernel := range kernelNames() {
		t.Run(kernel, func(t *testing.T) {
			withKernel(kernel, func() {
				rng := rand.New(rand.NewSource(31))
				for si, sizes := range shapes {
					n := newNet(t, sizes...)
					if si%2 == 1 {
						// A fresh network's biases are all zero; trained ones
						// are not.
						setParams(n, func(_, biases [][]float64) {
							for _, b := range biases {
								for j := range b {
									b[j] = rng.NormFloat64()
								}
							}
						})
					}
					s := n.NewScratch()
					in := n.InputSize()
					for _, rows := range []int{1, 3, batchRowBlock, batchRowBlock + 1, 2*batchRowBlock + 1} {
						// Start somewhere else in the cycle every time, so each
						// kind meets each position of a row block.
						first := rng.Intn(len(rowKinds))
						x := make([]float64, rows*in)
						kinds := ""
						for r := 0; r < rows; r++ {
							kind := rowKinds[(first+r)%len(rowKinds)]
							kind.fill(rng, x[r*in:(r+1)*in])
							kinds += " " + kind.name + ","
						}
						logits, err := n.ForwardBatchInto(s, x, rows)
						if err != nil {
							t.Fatal(err)
						}
						sameAsOracle(t, fmt.Sprintf("%v rows=%d (rows:%s)", sizes, rows, kinds), n, x, logits)
					}
				}
			})
		})
	}
}

// TestForwardAfterUpdateMatchesNaive runs each kernel after every writer of
// the parameters: New, Apply, Clone (and Apply on the clone alone), and a
// Save/Load round trip. The oracle reads the weights themselves, so a packed
// copy that one of them left stale fails here.
func TestForwardAfterUpdateMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	n := newNet(t, 21, 70, 33, 16)
	const rows = 11
	in, out := n.InputSize(), n.OutputSize()
	x := make([]float64, rows*in)
	for r := 0; r < rows; r++ {
		rowKinds[r%len(rowKinds)].fill(rng, x[r*in:(r+1)*in])
	}
	d := make([]float64, rows*out)
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	// step applies one update, large enough to move every parameter.
	step := func(n *Network) {
		t.Helper()
		g := n.NewGrads()
		s := n.NewScratch()
		if _, err := n.ForwardBatchInto(s, x, rows); err != nil {
			t.Fatal(err)
		}
		if err := n.BackwardBatchInto(s, d, rows, g); err != nil {
			t.Fatal(err)
		}
		if err := n.Apply(g, RMSProp{LR: 0.05, Rho: 0.9, Eps: 1e-8}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string, n *Network) {
		t.Helper()
		for _, kernel := range kernelNames() {
			withKernel(kernel, func() {
				logits, err := n.ForwardBatchInto(n.NewScratch(), x, rows)
				if err != nil {
					t.Fatal(err)
				}
				sameAsOracle(t, what+", kernel "+kernel, n, x, logits)
			})
		}
	}
	check("new", n)
	step(n)
	check("after Apply", n)
	c := n.Clone()
	check("clone", c)
	step(c)
	check("clone after its Apply", c)
	check("original after the clone's Apply", n)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("loaded", loaded)
	step(loaded)
	check("loaded after Apply", loaded)
}

// TestApplyMatchesOnBothKernels requires each kernel's RMSProp update to
// leave the same weights, biases and accumulators, bit for bit, after a few
// steps on every backwardShapes network, whose layers have every remainder
// of the vector kernel's four lanes. The gradients hold exact zeros of both
// signs.
func TestApplyMatchesOnBothKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, sizes := range backwardShapes {
		start := newNet(t, sizes...)
		steps := make([]*Grads, 3)
		for k := range steps {
			g := start.NewGrads()
			for l := range g.w {
				for _, p := range [][]float64{g.w[l], g.b[l]} {
					for i := range p {
						switch rng.Intn(4) {
						case 0:
							p[i] = math.Copysign(0, -1)
						case 1:
						default:
							p[i] = rng.NormFloat64()
						}
					}
				}
			}
			g.AddSamples(k + 1)
			steps[k] = g
		}
		var got []*Network
		for _, kernel := range kernelNames() {
			withKernel(kernel, func() {
				n := start.Clone()
				for _, step := range steps {
					g := start.NewGrads()
					for l := range g.w {
						copy(g.w[l], step.w[l])
						copy(g.b[l], step.b[l])
					}
					g.AddSamples(step.Samples())
					if err := n.Apply(g, RMSProp{LR: 0.01, Rho: 0.9, Eps: 1e-8}); err != nil {
						t.Fatal(err)
					}
				}
				got = append(got, n)
			})
		}
		for k, n := range got[1:] {
			for _, p := range []struct {
				what      string
				got, want [][]float64
			}{
				{"weight", n.weights, got[0].weights},
				{"bias", n.biases, got[0].biases},
				{"weight accumulator", n.msW, got[0].msW},
				{"bias accumulator", n.msB, got[0].msB},
			} {
				for l := range p.want {
					for i, want := range p.want[l] {
						if v := p.got[l][i]; math.Float64bits(v) != math.Float64bits(want) {
							t.Fatalf("%v: layer %d %s %d: kernel %s %g, kernel %s %g",
								sizes, l, p.what, i, kernelNames()[k+1], v, kernelNames()[0], want)
						}
					}
				}
			}
		}
	}
}

func TestProbsBatchIntoMatchesProbsInto(t *testing.T) {
	n := newNet(t, 6, 10, 4)
	batchScratch := n.NewScratch()
	rowScratch := n.NewScratch()
	rng := rand.New(rand.NewSource(33))
	const rows = 11
	x, masks := randomBatch(rng, rows, 6, 4)
	probs, err := n.ProbsBatchInto(batchScratch, x, rows, masks)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		want, err := n.ProbsInto(rowScratch, x[r*6:(r+1)*6], masks[r*4:(r+1)*4])
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if probs[r*4+j] != want[j] {
				t.Fatalf("row %d prob %d: batch %g, single %g", r, j, probs[r*4+j], want[j])
			}
		}
	}
	// A nil mask set allows everything.
	if _, err := n.ProbsBatchInto(batchScratch, x, rows, nil); err != nil {
		t.Fatal(err)
	}
}

// backwardShapes are the networks the backward equivalence tests run on: the
// paper's, and layer widths of 1, 3, 4, 5, 31, 32, 33 and 65, inputs
// included, which cover every remainder of the vector kernels' four lanes
// and both sides of one and two 32-unit blocks. 200 inputs take two vector
// blocks of inputs.
var backwardShapes = [][]int{
	{147, 256, 32, 32, 16},
	{7, 12, 9, 5},
	{1, 3, 4, 5},
	{5, 31, 32, 33},
	{33, 65, 1},
	{65, 5, 31, 3},
	{200, 33, 4},
	{1, 1}, {2, 3, 3},
}

// forEachKernel runs f as a subtest under each kernel this build runs here.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	for _, kernel := range kernelNames() {
		t.Run(kernel, func(t *testing.T) { withKernel(kernel, func() { f(t) }) })
	}
}

// plantDeadUnits gives every hidden layer of n random biases and one unit
// with no weights and a zero bias, whose pre-activation is exactly 0: it
// must pass nothing back.
func plantDeadUnits(rng *rand.Rand, n *Network) {
	setParams(n, func(weights, biases [][]float64) {
		for l := range weights[:len(weights)-1] {
			in := n.sizes[l]
			for j := range biases[l] {
				biases[l][j] = rng.NormFloat64() / 4
			}
			dead := rng.Intn(n.sizes[l+1])
			biases[l][dead] = 0
			for i := 0; i < in; i++ {
				weights[l][dead*in+i] = 0
			}
		}
	})
}

// TestBackwardBatchIntoMatchesSequential requires a batched backward pass to
// give the gradients, bit for bit, of one-row passes over the same rows in
// order, on each kernel and every backwardShapes network.
func TestBackwardBatchIntoMatchesSequential(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(35))
		for _, sizes := range backwardShapes {
			n := newNet(t, sizes...)
			plantDeadUnits(rng, n)
			in, out := n.InputSize(), n.OutputSize()
			batchScratch := n.NewScratch()
			rowScratch := n.NewScratch()
			// Enough rows for the vector kernel's phase 2 in BackwardBatchInto;
			// the one-row reference takes the other side of vectorMinRows.
			const rows = vectorMinRows + 3
			x, masks := randomBatch(rng, rows, in, out)
			if out == 1 {
				masks = nil // one action, never masked
			}

			// Sequential reference: one-row forward + backward per row, rows in
			// order. Gradient correctness itself is TestBackwardGradientCheck's job.
			want := n.NewGrads()
			d := make([]float64, rows*out)
			for r := 0; r < rows; r++ {
				var mask []bool
				if masks != nil {
					mask = masks[r*out : (r+1)*out]
				}
				probs, err := n.ProbsInto(rowScratch, x[r*in:(r+1)*in], mask)
				if err != nil {
					t.Fatal(err)
				}
				copy(d[r*out:], probs)
				d[r*out] -= 1 // pretend action 0 was taken
				if err := n.BackwardBatchInto(rowScratch, d[r*out:(r+1)*out], 1, want); err != nil {
					t.Fatal(err)
				}
			}

			got := n.NewGrads()
			if _, err := n.ProbsBatchInto(batchScratch, x, rows, masks); err != nil {
				t.Fatal(err)
			}
			if err := n.BackwardBatchInto(batchScratch, d, rows, got); err != nil {
				t.Fatal(err)
			}
			if got.Samples() != want.Samples() {
				t.Fatalf("%v samples: batch %d, sequential %d", sizes, got.Samples(), want.Samples())
			}
			sameGradBits(t, fmt.Sprint(sizes, " batch against sequential"), got, want.w, want.b)
		}
	})
}

// sameGradBits reports the first parameter at which g differs, bit for bit,
// from the oracle's w and b.
func sameGradBits(t *testing.T, what string, g *Grads, w, b [][]float64) {
	t.Helper()
	for l := range w {
		for i := range w[l] {
			if math.Float64bits(g.w[l][i]) != math.Float64bits(w[l][i]) {
				t.Fatalf("%s: layer %d weight %d: kernel %g, want %g", what, l, i, g.w[l][i], w[l][i])
			}
		}
		for i := range b[l] {
			if math.Float64bits(g.b[l][i]) != math.Float64bits(b[l][i]) {
				t.Fatalf("%s: layer %d bias %d: kernel %g, want %g", what, l, i, g.b[l][i], b[l][i])
			}
		}
	}
}

// TestBackwardBatchIntoMatchesNaive compares the gradients of each kernel with
// the naive oracle's, bit for bit, on every backwardShapes network, on
// batches mixing input rows of every kind
// (all zeros, gathered, over half non-zero, holding -0) with logit gradients
// holding exact zeros, on networks in which some hidden units have no weights,
// so that their pre-activation is exactly 0 and they must pass nothing back.
// Two batches go into the same Grads: the second adds to sums that are no
// longer zero.
func TestBackwardBatchIntoMatchesNaive(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(36))
		for _, sizes := range backwardShapes {
			n := newNet(t, sizes...)
			plantDeadUnits(rng, n)
			in, out := n.InputSize(), n.OutputSize()
			s := n.NewScratch()
			g := n.NewGrads()
			w, b := n.NewGrads().w, n.NewGrads().b
			// Both sides of BackwardBatchInto's vectorMinRows.
			for _, rows := range []int{2*vectorMinRows + 1, 3} {
				x := make([]float64, rows*in)
				d := make([]float64, rows*out)
				for r := 0; r < rows; r++ {
					rowKinds[r%len(rowKinds)].fill(rng, x[r*in:(r+1)*in])
					for j := 0; j < out; j++ {
						if rng.Intn(4) != 0 {
							d[r*out+j] = rng.NormFloat64()
						}
					}
					naiveBackward(n, x[r*in:(r+1)*in], d[r*out:(r+1)*out], w, b)
				}
				if _, err := n.ForwardBatchInto(s, x, rows); err != nil {
					t.Fatal(err)
				}
				if err := n.BackwardBatchInto(s, d, rows, g); err != nil {
					t.Fatal(err)
				}
				sameGradBits(t, fmt.Sprint(sizes, " rows=", rows), g, w, b)
			}
		}
	})
}

// TestSavedRowStandsInForForward saves every row of a forward pass and pushes
// the saved rows onto a tape: the two phases over it must give the gradients,
// bit for bit, of the backward pass that follows the forward directly, on
// each kernel and every backwardShapes network.
func TestSavedRowStandsInForForward(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(37))
		for _, sizes := range backwardShapes {
			n := newNet(t, sizes...)
			plantDeadUnits(rng, n)
			const rows = 35
			in, out := n.InputSize(), n.OutputSize()
			x := make([]float64, rows*in)
			d := make([]float64, rows*out)
			for r := 0; r < rows; r++ {
				rowKinds[r%len(rowKinds)].fill(rng, x[r*in:(r+1)*in])
			}
			for i := range d {
				d[i] = rng.NormFloat64()
			}
			s := n.NewScratch()
			if _, err := n.ForwardBatchInto(s, x, rows); err != nil {
				t.Fatal(err)
			}
			saved := make([]float64, rows*n.RowStateSize())
			tape := n.NewTape()
			for r := 0; r < rows; r++ {
				state := saved[r*n.RowStateSize() : (r+1)*n.RowStateSize()]
				n.SaveRow(s, r, state)
				dl, err := n.PushRow(tape, state)
				if err != nil {
					t.Fatal(err)
				}
				copy(dl, d[r*out:(r+1)*out])
				if r == 8 {
					n.Backprop(tape) // a later call picks up where this one stopped
				}
			}
			n.Backprop(tape)
			want, got := n.NewGrads(), n.NewGrads()
			if err := n.BackwardBatchInto(s, d, rows, want); err != nil {
				t.Fatal(err)
			}
			sumAllBlocks(n, got, tape)
			sameGradBits(t, fmt.Sprint(sizes, " saved rows"), got, want.w, want.b)
			if got.Samples() != want.Samples() {
				t.Errorf("%v samples: %d from saved rows, %d from forwarded ones", sizes, got.Samples(), want.Samples())
			}
		}
	})
	n := newNet(t, 147, 256, 32, 32, 16)
	tape := n.NewTape()
	state := make([]float64, n.RowStateSize())
	if _, err := n.PushRow(tape, state[1:]); !errors.Is(err, ErrBadInput) {
		t.Errorf("pushing a short row state: got %v, want ErrBadInput", err)
	}
	if _, err := newNet(t, 147, 16).PushRow(tape, state[:147]); !errors.Is(err, ErrBadShape) {
		t.Errorf("pushing onto another shape's tape: got %v, want ErrBadShape", err)
	}
}

// sumAllBlocks runs phase 2 over every block of n into g, one scratch for all,
// and counts the tapes' samples.
func sumAllBlocks(n *Network, g *Grads, tapes ...*Tape) {
	s := n.NewScratch()
	for b := 0; b < n.GradBlocks(); b++ {
		n.SumBlock(s, g, tapes, b)
	}
	for _, tp := range tapes {
		g.AddSamples(tp.Samples())
	}
}

// TestSumBlockMatchesPerTapeGrads is phase 2's oracle, on each kernel: one
// Grads per tape, filled by BackwardBatchInto, then added into the batch tape
// after tape. Shapes are backwardShapes, with dead units, and one whose
// inputs alone exceed a block's weights (one unit a pure-Go block, 43 input
// ranges of the vector kernel). Tapes hold rows of every input kind and logit
// gradients with exact zeros, every third row all zeros of either sign; one
// tape is empty, and the second round adds to sums that are no longer zero.
// Blocks run in a random order, as goroutines would finish them.
func TestSumBlockMatchesPerTapeGrads(t *testing.T) {
	forEachKernel(t, testSumBlockMatchesPerTapeGrads)
}

func testSumBlockMatchesPerTapeGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for _, sizes := range append([][]int{{2*gradBlockWeights + 3, 3, 2}}, backwardShapes...) {
		n := newNet(t, sizes...)
		plantDeadUnits(rng, n)
		in, out := n.InputSize(), n.OutputSize()
		got := n.NewGrads()
		w, b := n.NewGrads().w, n.NewGrads().b
		samples := 0
		s := n.NewScratch()
		for round := 0; round < 2; round++ {
			var tapes []*Tape
			for k, rows := range []int{3, 0, 18, 1} {
				tape := n.NewTape()
				tape.AddSamples(k)
				samples += k + rows
				if rows == 0 {
					tapes = append(tapes, tape)
					continue
				}
				x := make([]float64, rows*in)
				d := make([]float64, rows*out)
				for r := 0; r < rows; r++ {
					rowKinds[(k+r)%len(rowKinds)].fill(rng, x[r*in:(r+1)*in])
					for j := range d[r*out : (r+1)*out] {
						switch {
						case r%3 == 1: // a row that adds nothing, one -0 at a time
							d[r*out+j] = math.Copysign(0, float64(rng.Intn(2)-1))
						case rng.Intn(3) != 0:
							d[r*out+j] = rng.NormFloat64()
						}
					}
				}
				if _, err := n.ForwardBatchInto(s, x, rows); err != nil {
					t.Fatal(err)
				}
				own := n.NewGrads()
				if err := n.BackwardBatchInto(s, d, rows, own); err != nil {
					t.Fatal(err)
				}
				for l := range w {
					for i, v := range own.w[l] {
						w[l][i] += v
					}
					for i, v := range own.b[l] {
						b[l][i] += v
					}
				}
				states := make([]float64, rows*n.RowStateSize())
				for r := 0; r < rows; r++ {
					state := states[r*n.RowStateSize() : (r+1)*n.RowStateSize()]
					n.SaveRow(s, r, state)
					dl, err := n.PushRow(tape, state)
					if err != nil {
						t.Fatal(err)
					}
					copy(dl, d[r*out:(r+1)*out])
				}
				n.Backprop(tape)
				tapes = append(tapes, tape)
			}
			for _, blk := range rng.Perm(n.GradBlocks()) {
				n.SumBlock(s, got, tapes, blk)
			}
			for _, tape := range tapes {
				got.AddSamples(tape.Samples())
			}
			sameGradBits(t, fmt.Sprint(sizes, " round ", round), got, w, b)
			if got.Samples() != samples {
				t.Errorf("%v round %d: %d samples, want %d", sizes, round, got.Samples(), samples)
			}
		}
	}
}

func TestBatchErrors(t *testing.T) {
	n := newNet(t, 4, 6, 3)
	s := n.NewScratch()
	if _, err := n.ForwardBatchInto(s, make([]float64, 4), 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("zero rows err = %v", err)
	}
	if _, err := n.ForwardBatchInto(s, make([]float64, 7), 2); !errors.Is(err, ErrBadInput) {
		t.Errorf("short batch err = %v", err)
	}
	if _, err := n.ProbsBatchInto(s, make([]float64, 8), 2, make([]bool, 3)); !errors.Is(err, ErrBadInput) {
		t.Errorf("short masks err = %v", err)
	}
	// All-masked row surfaces ErrAllMasked with the row index.
	masks := make([]bool, 2*3)
	for j := 0; j < 3; j++ {
		masks[j] = true
	}
	if _, err := n.ProbsBatchInto(s, make([]float64, 8), 2, masks); !errors.Is(err, ErrAllMasked) {
		t.Errorf("all-masked row err = %v", err)
	}
	// Backward without a covering forward batch is rejected.
	fresh := n.NewScratch()
	if err := n.BackwardBatchInto(fresh, make([]float64, 6), 2, n.NewGrads()); !errors.Is(err, ErrBadInput) {
		t.Errorf("no-forward backward err = %v", err)
	}
}

// TestBatchZeroAllocs gates the batched-inference fast path on each kernel:
// after the first call sizes the batch buffers, forward, softmax and backward
// passes over a batch, and the two backward phases over a reused tape, must
// not touch the heap.
func TestBatchZeroAllocs(t *testing.T) {
	forEachKernel(t, testBatchZeroAllocs)
}

func testBatchZeroAllocs(t *testing.T) {
	n := newNet(t, 10, 16, 8, 4)
	s := n.NewScratch()
	g := n.NewGrads()
	const rows = 16
	rng := rand.New(rand.NewSource(37))
	x, masks := randomBatch(rng, rows, 10, 4)
	d := make([]float64, rows*4)
	for r := 0; r < rows; r++ {
		d[r*4+r%4] = 1 // every row busy: vectorMinRows, enough for the vector kernel's phase 2
	}
	if _, err := n.ProbsBatchInto(s, x, rows, masks); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := n.ForwardBatchInto(s, x, rows); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ForwardBatchInto allocates %.1f times per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := n.ProbsBatchInto(s, x, rows, masks); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ProbsBatchInto allocates %.1f times per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if err := n.BackwardBatchInto(s, d, rows, g); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("BackwardBatchInto allocates %.1f times per run, want 0", allocs)
	}
	states := make([]float64, rows*n.RowStateSize())
	for r := 0; r < rows; r++ {
		n.SaveRow(s, r, states[r*n.RowStateSize():(r+1)*n.RowStateSize()])
	}
	tape := n.NewTape()
	tapes := []*Tape{tape}
	allocs = testing.AllocsPerRun(100, func() {
		tape.Reset()
		for r := 0; r < rows; r++ {
			dl, err := n.PushRow(tape, states[r*n.RowStateSize():(r+1)*n.RowStateSize()])
			if err != nil {
				t.Fatal(err)
			}
			copy(dl, d[r*4:(r+1)*4])
		}
		n.Backprop(tape)
		for b := range n.GradBlocks() {
			n.SumBlock(s, g, tapes, b)
		}
	})
	if allocs != 0 {
		t.Errorf("PushRow, Backprop and SumBlock allocate %.1f times per run, want 0", allocs)
	}
	// Smaller batches reuse the grown buffers without reallocating.
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := n.ProbsBatchInto(s, x[:3*10], 3, masks[:3*4]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("small batch after large allocates %.1f times per run, want 0", allocs)
	}
}
