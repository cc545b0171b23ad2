package nn

import (
	"fmt"
	"math"
	"slices"
)

// The backward pass runs in two phases over a Tape of rows. Phase 1
// (Backprop) turns each row's logit gradient into the deltas of every layer;
// rows do not interact, so tapes can run it in parallel. Phase 2 (SumBlock)
// sums delta times activation into the weight gradients, one block of
// parameters at a time; blocks do not interact either, so they can run in
// parallel too, each walking the tapes in order. Every weight's gradient is
// what one Grads per tape, summed row after row from +0 and added to the
// batch tape after tape, would hold, bit for bit. BackwardBatchInto is the
// one-tape case.

// gradBlockWeights is about how many weights one phase-2 block of the pure-Go
// kernel holds: 32 KB of partial sums, which stay in L1 while the tapes
// stream past.
const gradBlockWeights = 4096

// vectorBlockWeights is the vector kernel's gradBlockWeights: 48 KB of sums,
// so that the paper's 147 inputs take one block of 32 units. Split in two,
// they would cost every row a second call and a search of its non-zeros.
const vectorBlockWeights = 6144

// vectorMinRows is how many busy rows BackwardBatchInto needs before it takes
// the vector kernel's phase 2, which first moves g's sums into its layout and
// back (about 40 µs on the paper's network). On that network, with 32-row
// batches, pure Go is measured faster below 16 busy rows. The warm start's
// batches have fewer: most of their rows have one legal action and so a zero
// logit gradient (3.4 busy rows of 32 on average, never more than 9, in the
// benchmark's set-up model build).
const vectorMinRows = 16

// Tape holds the rows of one backward pass between its two phases: a
// trajectory's gradient-carrying steps, or a minibatch. It refers to its rows'
// activations, it does not copy them: they must stay put until Reset. A tape
// keeps its storage across Reset, so a reused one stops allocating once it
// has held its largest sequence.
type Tape struct {
	layers int // weight layers of the network shape it was built for
	width  int // deltas per row: every layer's outputs
	half   int // non-zero input indices a row keeps: InputSize/2

	acts   [][]float64 // acts[r*layers+l]: row r's input to layer l
	deltas []float64   // row r's deltas from r*width, layer l's at deltaOffset(l)
	nz     []int32     // row r's non-zero input indices from r*half
	nnz    []int32     // their count per row, -1 for a row that takes the dense loop
	live   []int32     // Backprop's list of the units with a non-zero delta in a row
	busy   []int32     // the rows with a non-zero logit gradient, in order
	seen   []bool      // seen[i]: input i is non-zero in some busy row
	inputs []int32     // the inputs seen, in order, as of the last Backprop

	rows int // rows pushed
	done int // rows Backprop has run over
	n    int // samples: the rows and the zero-gradient ones
}

// NewTape returns an empty tape for rows of the network's shape.
func (n *Network) NewTape() *Tape {
	return &Tape{layers: len(n.weights), width: n.deltaOffset(len(n.weights)), half: n.sizes[0] / 2,
		seen: make([]bool, n.sizes[0]), inputs: make([]int32, 0, n.sizes[0])}
}

// deltaOffset is where layer l's deltas start in a tape row.
func (n *Network) deltaOffset(l int) int {
	off := 0
	for _, size := range n.sizes[1 : l+1] {
		off += size
	}
	return off
}

// Reset empties the tape, keeping its storage.
func (t *Tape) Reset() {
	t.rows, t.done, t.n, t.busy, t.inputs = 0, 0, 0, t.busy[:0], t.inputs[:0]
	clear(t.seen)
}

// AddSamples counts k samples that carry no gradient, as Grads.AddSamples
// does: they still belong to the batch that Apply averages over.
func (t *Tape) AddSamples(k int) { t.n += k }

// Samples returns how many samples the tape holds, rows included.
func (t *Tape) Samples() int { return t.n }

// grow makes room for rows rows. Growth allocates; a tape that has held as
// many rows before does not.
func (t *Tape) grow(rows int) {
	if rows <= len(t.nnz) {
		return
	}
	if t.live == nil {
		t.live = make([]int32, t.width)
	}
	c := max(rows, 2*len(t.nnz))
	t.acts = append(t.acts, make([][]float64, c*t.layers-len(t.acts))...)
	t.deltas = append(t.deltas, make([]float64, c*t.width-len(t.deltas))...)
	t.nz = append(t.nz, make([]int32, c*t.half-len(t.nz))...)
	t.nnz = append(t.nnz, make([]int32, c-len(t.nnz))...)
	t.busy = slices.Grow(t.busy, c-len(t.busy))
}

func errRowState(got, want int) error {
	return fmt.Errorf("%w: row state of %d values, want %d", ErrBadInput, got, want)
}

func errTapeShape() error {
	return fmt.Errorf("%w: tape does not match network", ErrBadShape)
}

// PushRow appends a row to t. state is the row's input and hidden
// activations as SaveRow writes them, under the weights the gradient is
// taken at; the tape refers to it until Reset. PushRow returns the row's
// logit gradient, OutputSize values the caller fills before Backprop.
func (n *Network) PushRow(t *Tape, state []float64) ([]float64, error) {
	if t.layers != len(n.weights) || t.width != n.deltaOffset(len(n.weights)) || len(t.seen) != n.sizes[0] {
		return nil, errTapeShape()
	}
	if want := n.RowStateSize(); len(state) != want {
		return nil, errRowState(len(state), want)
	}
	r := t.rows
	t.grow(r + 1)
	acts := t.acts[r*t.layers : (r+1)*t.layers]
	for l := range acts {
		size := n.sizes[l]
		acts[l], state = state[:size:size], state[size:]
	}
	t.rows++
	t.n++
	return t.deltas[r*t.width+n.deltaOffset(t.layers-1) : (r+1)*t.width], nil
}

// Backprop is phase 1 over the rows pushed since it last ran: from each
// row's logit gradient it computes the deltas of every lower layer, Wᵀ·delta
// through the ReLU derivative, and it gathers the non-zeros of the row's
// input. It computes no weight gradient. For a fixed (row, unit) the output
// units contribute in ascending order, exact zeros skipped, so a row's deltas
// depend on nothing but the row. A row whose logit gradient is all zeros
// (a sample with one legal action, say) adds nothing to any gradient: it is
// left out of both phases but for the sample count.
func (n *Network) Backprop(t *Tape) {
	for r := t.done; r < t.rows; r++ {
		if n.backpropRow(t, r) {
			t.busy = append(t.busy, int32(r))
		}
	}
	t.done = t.rows
	if !useAVX2 {
		return
	}
	t.inputs = t.inputs[:0]
	for i, seen := range t.seen {
		if seen {
			t.inputs = append(t.inputs, int32(i))
		}
	}
}

// backpropRow runs phase 1 over row r and reports whether its logit gradient
// has a non-zero.
func (n *Network) backpropRow(t *Tape, r int) bool {
	acts, row := t.acts[r*t.layers:(r+1)*t.layers], t.deltas[r*t.width:(r+1)*t.width]
	if len(nonZeros(row[n.deltaOffset(t.layers-1):], t.live)) == 0 {
		return false
	}
	k := gatherNonZero(acts[0], t.nz[r*t.half:(r+1)*t.half])
	t.nnz[r] = int32(k)
	switch {
	case !useAVX2:
		// Only the vector SumBlock reads which inputs the tape touched.
	case k >= 0:
		for _, i := range t.nz[r*t.half:][:k] {
			t.seen[i] = true
		}
	default:
		seen := t.seen[:len(acts[0])]
		for i, v := range acts[0] {
			// Branch-free: a dense row's zeros fall at random.
			s := seen[i]
			if v != 0 {
				s = true
			}
			seen[i] = s
		}
	}
	for l := t.layers - 1; l > 0; l-- {
		in, out := n.sizes[l], n.sizes[l+1]
		below, here := row[n.deltaOffset(l-1):][:in], row[n.deltaOffset(l):][:out]
		clear(below)
		// Exact zero: a zero delta propagates nothing backwards.
		live := nonZeros(here, t.live)
		if len(live) == 0 {
			continue
		}
		w, act := n.weights[l], acts[l]
		if useAVX2 {
			deltaRows(below, here, w, live, act)
			// The inputs past the last group of four, in the same order.
			for i := len(below) &^ 3; i < len(below); i++ {
				var v float64
				for _, j := range live {
					v += float64(here[j] * w[int(j)*in+i])
				}
				below[i] = reluDelta(v, act[i])
			}
			continue
		}
		k := 0
		for ; k+4 <= len(live); k += 4 {
			j0, j1, j2, j3 := int(live[k]), int(live[k+1]), int(live[k+2]), int(live[k+3])
			axpy4Rows(below, here[j0], here[j1], here[j2], here[j3],
				w[j0*in:(j0+1)*in], w[j1*in:(j1+1)*in], w[j2*in:(j2+1)*in], w[j3*in:(j3+1)*in])
		}
		for _, j := range live[k:] {
			axpy(below, here[j], w[int(j)*in:(int(j)+1)*in], nil)
		}
		for i, a := range act {
			below[i] = reluDelta(below[i], a)
		}
	}
	return true
}

// reluDelta is the ReLU derivative applied to a delta v of a unit whose
// activation is a: v where the unit fired, +0 where it did not. It selects on
// the bits, as the forward kernel does: whether a unit fired is as much a
// coin flip here as there.
func reluDelta(v, a float64) float64 {
	b := math.Float64bits(v)
	if a <= 0 {
		b = 0
	}
	return math.Float64frombits(b)
}

// nonZeros writes the indices of d's non-zero entries to buf, which holds
// len(d) of them, and returns them. Every index is written and only a
// non-zero's kept, by a conditional move: whether a unit fired is a coin
// flip to the branch predictor. Inlined, the loop keeps its count on the
// stack. The vector kernel takes four values a step (nonZeros4).
//
//go:noinline
func nonZeros(d []float64, buf []int32) []int32 {
	buf = buf[:len(d)]
	k, j0 := 0, 0
	if useAVX2 {
		k, j0 = nonZeros4(d, buf), len(d)&^3
	}
	for j := j0; j < len(d); j++ {
		buf[k] = int32(j)
		next := k + 1
		if d[j] == 0 {
			next = k
		}
		k = next
	}
	return buf[:k]
}

// axpy4Rows adds a0·w0, a1·w1, a2·w2 and a3·w3 to y, in that order, each
// product and each sum rounded on its own: the four axpy calls it replaces,
// element by element, in one pass over y.
//
//go:noinline
func axpy4Rows(y []float64, a0, a1, a2, a3 float64, w0, w1, w2, w3 []float64) {
	w0, w1, w2, w3 = w0[:len(y)], w1[:len(y)], w2[:len(y)], w3[:len(y)]
	for i, v := range y {
		v += float64(a0 * w0[i])
		v += float64(a1 * w1[i])
		v += float64(a2 * w2[i])
		v += float64(a3 * w3[i])
		y[i] = v
	}
}

// axpy4 adds a0·x to y0, a1·x to y1, a2·x to y2 and a3·x to y3: four axpy
// calls sharing one pass over x, or over its non-zero indices nz when not
// nil.
//
//go:noinline
func axpy4(y0, y1, y2, y3 []float64, a0, a1, a2, a3 float64, x []float64, nz []int32) {
	y0, y1, y2, y3 = y0[:len(x)], y1[:len(x)], y2[:len(x)], y3[:len(x)]
	if nz != nil {
		for _, i := range nz {
			xi := x[i]
			y0[i] += float64(a0 * xi)
			y1[i] += float64(a1 * xi)
			y2[i] += float64(a2 * xi)
			y3[i] += float64(a3 * xi)
		}
		return
	}
	for i, xi := range x {
		y0[i] += float64(a0 * xi)
		y1[i] += float64(a1 * xi)
		y2[i] += float64(a2 * xi)
		y3[i] += float64(a3 * xi)
	}
}

// axpy2 is axpy4 for two rows.
//
//go:noinline
func axpy2(y0, y1 []float64, a0, a1 float64, x []float64, nz []int32) {
	y0, y1 = y0[:len(x)], y1[:len(x)]
	if nz != nil {
		for _, i := range nz {
			xi := x[i]
			y0[i] += float64(a0 * xi)
			y1[i] += float64(a1 * xi)
		}
		return
	}
	for i, xi := range x {
		y0[i] += float64(a0 * xi)
		y1[i] += float64(a1 * xi)
	}
}

// sumRows adds the parameter gradients of t's rows to layer l's output units
// [j0, j1): dw holds their weight rows, db their biases. For a fixed weight
// the rows contribute in ascending order. A unit whose delta in a row is an
// exact zero takes nothing from that row, and on layer 0 only a sparse input
// row's non-zeros are visited: a skipped term is a signed zero added to a sum
// that began at +0 and so cannot be -0, which changes nothing as long as the
// deltas are finite (the caveat of dot4). The units that do take a row's
// terms go four, then two, then one at a time through one pass over the row.
// live holds j1-j0 indices. touched, when not nil, marks every unit some row
// reached.
func (n *Network) sumRows(t *Tape, l, j0, j1 int, dw, db []float64, live []int32, touched []bool) {
	in, off := n.sizes[l], n.deltaOffset(l)+j0
	for _, r := range t.busy {
		d := t.deltas[int(r)*t.width+off:][:j1-j0]
		units := nonZeros(d, live)
		if len(units) == 0 {
			continue
		}
		x := t.acts[int(r)*t.layers+l]
		var nz []int32 // nil: the row is dense
		if k := t.nnz[r]; l == 0 && k >= 0 {
			nz = t.nz[int(r)*t.half:][:k]
		}
		k := 0
		for ; k+4 <= len(units); k += 4 {
			u0, u1, u2, u3 := int(units[k]), int(units[k+1]), int(units[k+2]), int(units[k+3])
			axpy4(dw[u0*in:(u0+1)*in], dw[u1*in:(u1+1)*in], dw[u2*in:(u2+1)*in], dw[u3*in:(u3+1)*in],
				d[u0], d[u1], d[u2], d[u3], x, nz)
		}
		if k+2 <= len(units) {
			u0, u1 := int(units[k]), int(units[k+1])
			axpy2(dw[u0*in:(u0+1)*in], dw[u1*in:(u1+1)*in], d[u0], d[u1], x, nz)
			k += 2
		}
		if k < len(units) {
			u := int(units[k])
			axpy(dw[u*in:(u+1)*in], d[u], x, nz)
		}
		for _, u := range units {
			db[u] += d[u]
			if touched != nil {
				touched[u] = true
			}
		}
	}
}

// blockShape returns how many output units and how many inputs of layer l
// one phase-2 block holds. The pure-Go kernel takes whole weight rows, about
// gradBlockWeights weights of them and at least one; the vector kernel takes
// 32 units, eight registers' width of sums per input, over an even share of
// the inputs that keeps a block within vectorBlockWeights weights.
func (n *Network) blockShape(l int, vector bool) (units, inputs int) {
	in := n.sizes[l]
	if !vector {
		return min(max(1, gradBlockWeights/in), n.sizes[l+1]), in
	}
	parts := (32*in + vectorBlockWeights - 1) / vectorBlockWeights
	return 32, (in + parts - 1) / parts
}

// GradBlocks is how many blocks of parameters SumBlock splits the network's
// into: output units and, on the vector kernel, input ranges of a layer.
func (n *Network) GradBlocks() int { return n.gradBlocks(useAVX2) }

func (n *Network) gradBlocks(vector bool) int {
	blocks := 0
	for l := range n.weights {
		units, inputs := n.blockShape(l, vector)
		blocks += ceilDiv(n.sizes[l+1], units) * ceilDiv(n.sizes[l], inputs)
	}
	return blocks
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// block returns the layer of block b of the kernel's blocks, its output
// units [j0, j1) and the inputs [i0, i1) whose weights it holds.
func (n *Network) block(b int, vector bool) (l, j0, j1, i0, i1 int) {
	for l := range n.weights {
		units, inputs := n.blockShape(l, vector)
		in, out := n.sizes[l], n.sizes[l+1]
		ranges := ceilDiv(in, inputs)
		if k := ceilDiv(out, units) * ranges; b >= k {
			b -= k
			continue
		}
		u, r := b/ranges, b%ranges
		return l, u * units, min((u+1)*units, out), r * inputs, min((r+1)*inputs, in)
	}
	panic(fmt.Sprintf("nn: block %d of %d", b, n.gradBlocks(vector)))
}

// SumBlock is phase 2 for block b of the parameters. It walks the tapes in
// order and, for each, sums the tape's rows, in row order, into a partial
// that starts at +0, then adds the partial to g: per weight, tape after tape,
// the order of a batch Grads that every tape's own Grads was merged into.
// A unit no row of a tape reached holds +0, and adding +0 to a sum that
// cannot be -0 changes nothing, so its partial is neither added nor cleared.
// Blocks cover disjoint parameters: goroutines may run SumBlock on different
// blocks of one g at once, each with its own scratch, while nothing writes to
// the tapes. Every tape must have been through Backprop. SumBlock counts no
// samples: add each tape's Samples to g once.
func (n *Network) SumBlock(s *Scratch, g *Grads, tapes []*Tape, b int) {
	l, j0, j1, i0, i1 := n.block(b, useAVX2)
	for _, t := range tapes {
		if t.done != t.rows {
			panic("nn: SumBlock on a tape with rows Backprop has not run over")
		}
	}
	if useAVX2 {
		acc, part, idx := n.vectorSums(s, i1-i0)
		n.loadBlock(acc, g, l, j0, j1, i0, i1)
		in, bias := n.sizes[l], (i1-i0)*32
		for _, t := range tapes {
			switch {
			case !n.sumRows32(t, l, j0, j1, i0, i1, part, idx):
			case l == 0:
				// The network's input is sparse: a tape's rows touch only some
				// inputs' sums (54 of 147 on a 25-task job), and only those
				// are added; the others are still +0.
				addClearRows(acc, part, within(t.inputs, i0, i1, in), i0)
				addClear(acc[bias:], part[bias:])
			default:
				addClear(acc, part)
			}
		}
		n.storeBlock(acc, g, l, j0, j1, i0, i1)
		return
	}
	in, units := n.sizes[l], j1-j0
	if len(s.live) < units || len(s.partW) < units*in {
		n.growPartial(s)
	}
	pw, pb, live, touched := s.partW[:units*in], s.partB[:units], s.live[:units], s.touched[:units]
	gw, gb := g.w[l][j0*in:j1*in], g.b[l][j0:j1]
	for _, t := range tapes {
		n.sumRows(t, l, j0, j1, pw, pb, live, touched)
		for u, hit := range touched {
			if !hit {
				continue
			}
			touched[u] = false
			gb[u] += pb[u]
			pb[u] = 0
			grow, prow := gw[u*in:(u+1)*in], pw[u*in:(u+1)*in]
			for i, v := range prow {
				grow[i] += v
				prow[i] = 0
			}
		}
	}
}

// growPartial sizes s's partial sums for the network's largest block on the
// pure-Go kernel.
func (n *Network) growPartial(s *Scratch) {
	weights, units := 0, 0
	for l := range n.weights {
		u, _ := n.blockShape(l, false)
		weights, units = max(weights, u*n.sizes[l]), max(units, u)
	}
	s.partW, s.partB = make([]float64, weights), make([]float64, units)
	s.live, s.touched = make([]int32, units), make([]bool, units)
}

// vectorSums returns the vector kernel's buffers for a block of inputs
// inputs: acc and part hold 32 sums per input and 32 biases after them, acc
// those of g and part a tape's, which is +0 between uses; idx holds an index
// per input. They are grown, for the network's largest block, on first use.
func (n *Network) vectorSums(s *Scratch, inputs int) (acc, part []float64, idx []int32) {
	if len(s.idx) < inputs {
		size := 0
		for l := range n.weights {
			_, in := n.blockShape(l, true)
			size = max(size, in)
		}
		s.acc, s.part, s.idx = make([]float64, 32*(size+1)), make([]float64, 32*(size+1)), make([]int32, size)
	}
	return s.acc[:32*(inputs+1)], s.part[:32*(inputs+1)], s.idx[:inputs]
}

// loadBlock copies g's sums of a block into acc, input major in rows of 32
// units with the biases after them (the block with the first inputs holds its
// units' biases), and storeBlock copies them back: whole 4x4 tiles through
// transpose4, the rest one value at a time. A block of fewer than 32 units
// leaves the rest of each row alone: its lanes are never stored.
func (n *Network) loadBlock(acc []float64, g *Grads, l, j0, j1, i0, i1 int) {
	in, units, inputs := n.sizes[l], j1-j0, i1-i0
	w, units4, inputs4 := g.w[l][j0*in+i0:], units&^3, inputs&^3
	transpose4(acc, 32, w, in, units4, inputs4)
	for k := range units {
		for i := tileEnd(k, units4, inputs4); i < inputs; i++ {
			acc[i*32+k] = w[k*in+i]
		}
		if i0 == 0 {
			acc[inputs*32+k] = g.b[l][j0+k]
		}
	}
}

func (n *Network) storeBlock(acc []float64, g *Grads, l, j0, j1, i0, i1 int) {
	in, units, inputs := n.sizes[l], j1-j0, i1-i0
	w, units4, inputs4 := g.w[l][j0*in+i0:], units&^3, inputs&^3
	transpose4(w, in, acc, 32, inputs4, units4)
	for k := range units {
		for i := tileEnd(k, units4, inputs4); i < inputs; i++ {
			w[k*in+i] = acc[i*32+k]
		}
		if i0 == 0 {
			g.b[l][j0+k] = acc[inputs*32+k]
		}
	}
}

// tileEnd is where unit k's inputs past transpose4's tiles begin.
func tileEnd(k, units4, inputs4 int) int {
	if k < units4 {
		return inputs4
	}
	return 0
}

// within returns the indices of idx, ascending, that lie in [i0, i1), where
// every index is below in.
func within(idx []int32, i0, i1, in int) []int32 {
	if i0 > 0 {
		lo, _ := slices.BinarySearch(idx, int32(i0))
		idx = idx[lo:]
	}
	if i1 < in {
		hi, _ := slices.BinarySearch(idx, int32(i1))
		idx = idx[:hi]
	}
	return idx
}

// sumRows32 is sumRows on the vector kernel: it adds the terms of t's busy
// rows, in order, to the sums of layer l's units [j0, j1) and inputs [i0, i1)
// in p, laid out as loadBlock lays them out, through outer32. A row visits
// the inputs of the block's range that are non-zero (gathered in phase 1 on
// layer 0, every input of a row over half non-zero), as sumRows does on
// layer 0: skipping a zero input is what sumRows' caveat allows. A unit with
// a zero delta in a row adds a signed zero where sumRows adds nothing, which
// keeps every bit by the same caveat. It reports whether some row had a
// non-zero delta in the block.
func (n *Network) sumRows32(t *Tape, l, j0, j1, i0, i1 int, p []float64, buf []int32) bool {
	in, off, units := n.sizes[l], n.deltaOffset(l)+j0, j1-j0
	var bias *[32]float64
	if i0 == 0 {
		bias = (*[32]float64)(p[(i1-i0)*32:])
	}
	var pad [32]float64 // a block of fewer than 32 units: its deltas, zero-padded
	hit := false
	for _, r := range t.busy {
		d := &pad
		if row := t.deltas[int(r)*t.width+off:]; units == 32 {
			d = (*[32]float64)(row)
		} else {
			copy(pad[:units], row)
		}
		x, base, idx := t.acts[int(r)*t.layers+l], i0, n.dense[i0:i1]
		switch k := t.nnz[r]; {
		case l > 0:
			// A hidden input is a ReLU output, about half of them +0.
			x, base = x[i0:i1], 0
			idx = nonZeros(x, buf)
		case k >= 0:
			idx = within(t.nz[int(r)*t.half:][:k], i0, i1, in)
		}
		if outer32(p, d, x, idx, base, bias) {
			hit = true
		}
	}
	return hit
}

// BackwardBatchInto accumulates gradients for a whole batch given dLogits,
// the row-major rows x OutputSize gradient of the loss with respect to the
// logits (for policy-gradient / cross-entropy losses with softmax this is
// (probs - onehot) * scale), and the activations of the scratch's first rows
// rows, those of its most recent ForwardBatchInto, which must have covered at
// least that many. It is the one-tape case of the two phases, summed straight
// into g: contributions are accumulated in row order, so splitting the same
// rows over several calls gives bit-identical gradients.
func (n *Network) BackwardBatchInto(s *Scratch, dLogits []float64, rows int, g *Grads) error {
	out := n.OutputSize()
	if rows < 1 || len(dLogits) != rows*out {
		return errBatchDLogits(len(dLogits), rows, out)
	}
	if err := n.checkScratch(s); err != nil {
		return err
	}
	if s.rows < rows {
		return errBatchCold(s.rows, rows)
	}
	if s.tape == nil {
		s.tape = n.NewTape()
	}
	t := s.tape
	t.Reset()
	t.grow(rows)
	last := n.deltaOffset(t.layers - 1)
	for r := 0; r < rows; r++ {
		for l := 0; l < t.layers; l++ {
			size := n.sizes[l]
			t.acts[r*t.layers+l] = s.acts[l][r*size : (r+1)*size]
		}
		copy(t.deltas[r*t.width+last:(r+1)*t.width], dLogits[r*out:(r+1)*out])
	}
	t.rows, t.n = rows, rows
	n.Backprop(t)
	// Block by block, as SumBlock goes, so that the gradient rows a row's
	// terms go to stay in L1; phase 1 is over, so its unit list is free.
	vector := useAVX2 && len(t.busy) >= vectorMinRows
	for b := range n.gradBlocks(vector) {
		l, j0, j1, i0, i1 := n.block(b, vector)
		if vector {
			acc, _, idx := n.vectorSums(s, i1-i0)
			n.loadBlock(acc, g, l, j0, j1, i0, i1)
			if n.sumRows32(t, l, j0, j1, i0, i1, acc, idx) {
				n.storeBlock(acc, g, l, j0, j1, i0, i1)
			}
			continue
		}
		in := n.sizes[l]
		n.sumRows(t, l, j0, j1, g.w[l][j0*in:j1*in], g.b[l][j0:j1], t.live, nil)
	}
	g.n += rows
	return nil
}
