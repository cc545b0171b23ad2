package nn

import (
	"fmt"
	"math"
	"slices"
)

// The backward pass runs in two phases over a Tape of rows. Phase 1
// (Backprop) turns each row's logit gradient into the deltas of every layer;
// rows do not interact, so tapes can run it in parallel. Phase 2 (SumBlock)
// sums delta times activation into the weight gradients, one block of output
// units at a time; blocks do not interact either, so they can run in
// parallel too, each walking the tapes in order. Every weight's gradient is
// what one Grads per tape, summed row after row from +0 and added to the
// batch tape after tape, would hold, bit for bit. BackwardBatchInto is the
// one-tape case.

// gradBlockWeights is about how many weights one phase-2 block holds: 32 KB
// of partial sums, which stay in L1 while the tapes stream past.
const gradBlockWeights = 4096

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

	rows int // rows pushed
	done int // rows Backprop has run over
	n    int // samples: the rows and the zero-gradient ones
}

// NewTape returns an empty tape for rows of the network's shape.
func (n *Network) NewTape() *Tape {
	return &Tape{layers: len(n.weights), width: n.deltaOffset(len(n.weights)), half: n.sizes[0] / 2}
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
func (t *Tape) Reset() { t.rows, t.done, t.n, t.busy = 0, 0, 0, t.busy[:0] }

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
	if t.layers != len(n.weights) || t.width != n.deltaOffset(len(n.weights)) || t.half != n.sizes[0]/2 {
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
}

// backpropRow runs phase 1 over row r and reports whether its logit gradient
// has a non-zero.
func (n *Network) backpropRow(t *Tape, r int) bool {
	acts, row := t.acts[r*t.layers:(r+1)*t.layers], t.deltas[r*t.width:(r+1)*t.width]
	if len(nonZeros(row[n.deltaOffset(t.layers-1):], t.live)) == 0 {
		return false
	}
	t.nnz[r] = int32(gatherNonZero(acts[0], t.nz[r*t.half:(r+1)*t.half]))
	for l := t.layers - 1; l > 0; l-- {
		in, out := n.sizes[l], n.sizes[l+1]
		below, here := row[n.deltaOffset(l-1):][:in], row[n.deltaOffset(l):][:out]
		clear(below)
		// Exact zero: a zero delta propagates nothing backwards.
		live := nonZeros(here, t.live)
		if len(live) == 0 {
			continue
		}
		w := n.weights[l]
		k := 0
		for ; k+4 <= len(live); k += 4 {
			j0, j1, j2, j3 := int(live[k]), int(live[k+1]), int(live[k+2]), int(live[k+3])
			axpy4Rows(below, here[j0], here[j1], here[j2], here[j3],
				w[j0*in:(j0+1)*in], w[j1*in:(j1+1)*in], w[j2*in:(j2+1)*in], w[j3*in:(j3+1)*in])
		}
		for _, j := range live[k:] {
			axpy(below, here[j], w[int(j)*in:(int(j)+1)*in], nil)
		}
		// ReLU derivative, by the bit select of the forward kernel: whether a
		// unit fired is as much a coin flip here as there.
		for i, a := range acts[l] {
			b := math.Float64bits(below[i])
			if a <= 0 {
				b = 0
			}
			below[i] = math.Float64frombits(b)
		}
	}
	return true
}

// nonZeros writes the indices of d's non-zero entries to buf, which holds
// len(d) of them, and returns them. Every index is written and only a
// non-zero's kept, by a conditional move: whether a unit fired is a coin
// flip to the branch predictor. Inlined, the loop keeps its count on the
// stack.
//
//go:noinline
func nonZeros(d []float64, buf []int32) []int32 {
	buf = buf[:len(d)]
	k := 0
	for j, v := range d {
		buf[k] = int32(j)
		next := k + 1
		if v == 0 {
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

// blockUnits is how many output units of a layer with in inputs one phase-2
// block holds: about gradBlockWeights weights, at least one unit.
func blockUnits(in int) int { return max(1, gradBlockWeights/in) }

// GradBlocks is how many blocks of output units SumBlock splits the
// network's parameters into.
func (n *Network) GradBlocks() int {
	blocks := 0
	for l := range n.weights {
		u := blockUnits(n.sizes[l])
		blocks += (n.sizes[l+1] + u - 1) / u
	}
	return blocks
}

// block returns the layer and the output units [j0, j1) of block b.
func (n *Network) block(b int) (l, j0, j1 int) {
	for l := range n.weights {
		u, out := blockUnits(n.sizes[l]), n.sizes[l+1]
		if k := (out + u - 1) / u; b >= k {
			b -= k
			continue
		}
		return l, b * u, min((b+1)*u, out)
	}
	panic(fmt.Sprintf("nn: block %d of %d", b, n.GradBlocks()))
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
	l, j0, j1 := n.block(b)
	in, units := n.sizes[l], j1-j0
	if len(s.live) < units || len(s.partW) < units*in {
		n.growPartial(s)
	}
	pw, pb, live, touched := s.partW[:units*in], s.partB[:units], s.live[:units], s.touched[:units]
	gw, gb := g.w[l][j0*in:j1*in], g.b[l][j0:j1]
	for _, t := range tapes {
		if t.done != t.rows {
			panic("nn: SumBlock on a tape with rows Backprop has not run over")
		}
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

// growPartial sizes s's partial sums for the network's largest block.
func (n *Network) growPartial(s *Scratch) {
	weights, units := 0, 0
	for l := range n.weights {
		u := min(blockUnits(n.sizes[l]), n.sizes[l+1])
		weights, units = max(weights, u*n.sizes[l]), max(units, u)
	}
	s.partW, s.partB = make([]float64, weights), make([]float64, units)
	s.live, s.touched = make([]int32, units), make([]bool, units)
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
	for b := range n.GradBlocks() {
		l, j0, j1 := n.block(b)
		in := n.sizes[l]
		n.sumRows(t, l, j0, j1, g.w[l][j0*in:j1*in], g.b[l][j0:j1], t.live, nil)
	}
	g.n += rows
	return nil
}
