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

func TestBackwardBatchIntoMatchesSequential(t *testing.T) {
	n := newNet(t, 5, 9, 7, 3)
	batchScratch := n.NewScratch()
	rowScratch := n.NewScratch()
	rng := rand.New(rand.NewSource(35))
	const rows = 9
	x, masks := randomBatch(rng, rows, 5, 3)

	// Sequential reference: one-row forward + backward per row, rows in
	// order. Gradient correctness itself is TestBackwardGradientCheck's job.
	want := n.NewGrads()
	d := make([]float64, rows*3)
	for r := 0; r < rows; r++ {
		probs, err := n.ProbsInto(rowScratch, x[r*5:(r+1)*5], masks[r*3:(r+1)*3])
		if err != nil {
			t.Fatal(err)
		}
		for j := range probs {
			d[r*3+j] = probs[j]
		}
		d[r*3] -= 1 // pretend action 0 was taken
		if err := n.BackwardBatchInto(rowScratch, d[r*3:(r+1)*3], 1, want); err != nil {
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
		t.Fatalf("samples: batch %d, sequential %d", got.Samples(), want.Samples())
	}
	for l := range want.w {
		for i := range want.w[l] {
			if got.w[l][i] != want.w[l][i] {
				t.Fatalf("layer %d weight %d: batch %g, sequential %g", l, i, got.w[l][i], want.w[l][i])
			}
		}
		for i := range want.b[l] {
			if got.b[l][i] != want.b[l][i] {
				t.Fatalf("layer %d bias %d: batch %g, sequential %g", l, i, got.b[l][i], want.b[l][i])
			}
		}
	}
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

// TestBackwardBatchIntoMatchesNaive compares the gradients of the kernel with
// the naive oracle's, bit for bit, on batches mixing input rows of every kind
// (all zeros, gathered, over half non-zero, holding -0) with logit gradients
// holding exact zeros, on networks in which some hidden units have no weights,
// so that their pre-activation is exactly 0 and they must pass nothing back.
// Two batches go into the same Grads: the second adds to sums that are no
// longer zero.
func TestBackwardBatchIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, sizes := range [][]int{{7, 12, 9, 5}, {147, 256, 32, 32, 16}, {1, 1}, {2, 3, 3}} {
		n := newNet(t, sizes...)
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
		in, out := n.InputSize(), n.OutputSize()
		s := n.NewScratch()
		g := n.NewGrads()
		w, b := n.NewGrads().w, n.NewGrads().b
		for _, rows := range []int{2*len(rowKinds) + 1, 3} {
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
}

// TestSavedRowStandsInForForward saves every row of a forward pass and pushes
// the saved rows onto a tape: the two phases over it must give the gradients,
// bit for bit, of the backward pass that follows the forward directly.
func TestSavedRowStandsInForForward(t *testing.T) {
	n := newNet(t, 147, 256, 32, 32, 16)
	rng := rand.New(rand.NewSource(37))
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
	sameGradBits(t, "saved rows", got, want.w, want.b)
	if got.Samples() != want.Samples() {
		t.Errorf("samples: %d from saved rows, %d from forwarded ones", got.Samples(), want.Samples())
	}
	if _, err := n.PushRow(tape, saved[1:n.RowStateSize()]); !errors.Is(err, ErrBadInput) {
		t.Errorf("pushing a short row state: got %v, want ErrBadInput", err)
	}
	if _, err := newNet(t, 147, 16).PushRow(tape, saved[:147]); !errors.Is(err, ErrBadShape) {
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

// TestSumBlockMatchesPerTapeGrads is phase 2's oracle: one Grads per tape,
// filled by BackwardBatchInto, then added into the batch tape after tape.
// Shapes cover a layer wider than one block and not a multiple of it (147
// inputs: 13 units a block), a layer whose inputs alone exceed a block's
// weights, and single units. Tapes hold rows of every input kind and logit
// gradients with exact zeros, every third row all zeros of either sign; one
// tape is empty, and the second round adds to sums that are no longer zero. Blocks run in a random order, as
// goroutines would finish them.
func TestSumBlockMatchesPerTapeGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for _, sizes := range [][]int{{7, 12, 9, 5}, {147, 256, 32, 32, 16}, {2*gradBlockWeights + 3, 3, 2}, {1, 1}} {
		n := newNet(t, sizes...)
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

// TestBatchZeroAllocs gates the batched-inference fast path: after the first
// call sizes the batch buffers, forward, softmax and backward passes over a
// batch must not touch the heap.
func TestBatchZeroAllocs(t *testing.T) {
	n := newNet(t, 10, 16, 8, 4)
	s := n.NewScratch()
	g := n.NewGrads()
	const rows = 16
	rng := rand.New(rand.NewSource(37))
	x, masks := randomBatch(rng, rows, 10, 4)
	d := make([]float64, rows*4)
	d[0] = 1
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
