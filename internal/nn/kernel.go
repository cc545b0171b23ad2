// The one inference path: ForwardBatchInto and BackwardBatchInto are the only
// forward and backward kernels. They work on a row-major batch held in a
// caller-owned Scratch; a single state is the rows=1 call (ProbsInto).
// Evaluating several states per pass streams each weight row once per row
// block instead of once per state, and per-row arithmetic (accumulation order
// included) does not depend on the batch size, so any split of the same rows
// into batches gives bit-identical results. The forward kernel computes four
// outputs per pass over an input row, and both kernels skip the zeros of a
// sparse network input; neither changes a bit of any sum (see dot4).
package nn

import (
	"fmt"
	"math"
)

// batchRowBlock is the row-tile size of the forward kernel: weight rows are
// streamed once per block while the block's activations stay L1-resident.
const batchRowBlock = 8

// Scratch holds the reusable buffers of the allocation-free inference and
// backprop path. A Scratch is shaped for the network that created it and must
// not be shared across goroutines; give every worker its own via NewScratch.
type Scratch struct {
	// acts[l] holds the row-major rows x sizes[l] activations of layer l:
	// acts[0] is the input copy, the last entry the raw logits.
	acts  [][]float64
	probs []float64
	// deltaA/deltaB ping-pong the row-major batch deltas during backprop,
	// each sized rows x the widest layer.
	deltaA []float64
	deltaB []float64
	// nz holds the non-zero indices of the network inputs, InputSize/2 per
	// row: of the current row block in the forward kernel, of the whole batch
	// in the backward one. nnz (forward) and batchNnz (backward) hold their
	// count per row, -1 for a row that takes the dense loop.
	nz       []int32
	nnz      [batchRowBlock]int
	batchNnz []int32
	rows     int // rows the buffers are currently sized for
}

// NewScratch allocates a scratch buffer set shaped like the network and sized
// for one row, so a single-row call never allocates. Larger batches grow it
// on first use.
func (n *Network) NewScratch() *Scratch { return n.NewBatchScratch(1) }

// NewBatchScratch is NewScratch sized for rows rows up front: what LoadRow
// needs, which fills a scratch row by row and so cannot grow it.
func (n *Network) NewBatchScratch(rows int) *Scratch {
	s := &Scratch{acts: make([][]float64, len(n.sizes))}
	n.ensureRows(s, max(rows, 1))
	return s
}

// ensureRows grows the scratch's buffers to hold at least rows rows. Growth
// allocates; once sized, the kernels are allocation-free.
//
//spear:slowpath
func (n *Network) ensureRows(s *Scratch, rows int) {
	if s.rows >= rows {
		return
	}
	widest := 0
	for l, size := range n.sizes {
		s.acts[l] = make([]float64, rows*size)
		if size > widest {
			widest = size
		}
	}
	s.probs = make([]float64, rows*n.OutputSize())
	s.deltaA = make([]float64, rows*widest)
	s.deltaB = make([]float64, rows*widest)
	idx := make([]int32, rows*(1+n.sizes[0]/2))
	s.batchNnz, s.nz = idx[:rows], idx[rows:]
	s.rows = rows
}

// checkScratch verifies that s was built for a network of n's shape.
//
//spear:slowpath
func (n *Network) checkScratch(s *Scratch) error {
	if s == nil || len(s.acts) != len(n.sizes) {
		return fmt.Errorf("%w: scratch does not match network", ErrBadShape)
	}
	for l, size := range n.sizes {
		if len(s.acts[l]) != s.rows*size {
			return fmt.Errorf("%w: scratch layer %d holds %d values, want %d rows x %d", ErrBadShape, l, len(s.acts[l]), s.rows, size)
		}
	}
	return nil
}

// Cold-path error constructors for the //spear:noalloc kernels, where fmt is
// forbidden.
//
//spear:slowpath
func errBatchSize(rows int) error {
	return fmt.Errorf("%w: batch of %d rows", ErrBadInput, rows)
}

//spear:slowpath
func errBatchValues(got, rows, in int) error {
	return fmt.Errorf("%w: got %d values, want %d rows x %d", ErrBadInput, got, rows, in)
}

//spear:slowpath
func errBatchMasks(got, rows, out int) error {
	return fmt.Errorf("%w: masks %d, want %d rows x %d", ErrBadInput, got, rows, out)
}

//spear:slowpath
func errBatchRow(r int, err error) error {
	return fmt.Errorf("row %d: %w", r, err)
}

//spear:slowpath
func errBatchDLogits(got, rows, out int) error {
	return fmt.Errorf("%w: dLogits %d, want %d rows x %d", ErrBadInput, got, rows, out)
}

//spear:slowpath
func errBatchCold(have, want int) error {
	return fmt.Errorf("%w: scratch holds %d rows, want %d (run ForwardBatchInto first)", ErrBadInput, have, want)
}

//spear:slowpath
func errMaskSize(mask, logits int) error {
	return fmt.Errorf("%w: mask size %d, logits %d", ErrBadInput, mask, logits)
}

// ForwardBatchInto computes logits for a row-major batch x (rows vectors of
// InputSize each) into the scratch, returning the row-major rows x OutputSize
// logits. The returned slice is owned by the scratch and valid until its next
// call. Buffer growth happens in ensureRows; once the scratch is warm this
// kernel never touches the heap.
//
//spear:noalloc
func (n *Network) ForwardBatchInto(s *Scratch, x []float64, rows int) ([]float64, error) {
	if rows < 1 {
		return nil, errBatchSize(rows)
	}
	in0 := n.sizes[0]
	if len(x) != rows*in0 {
		return nil, errBatchValues(len(x), rows, in0)
	}
	if err := n.checkScratch(s); err != nil {
		return nil, err
	}
	n.ensureRows(s, rows)
	copy(s.acts[0][:rows*in0], x)
	last := len(n.weights) - 1
	for l, w := range n.weights {
		in, out := n.sizes[l], n.sizes[l+1]
		a, c, bias := s.acts[l], s.acts[l+1], n.biases[l]
		for r0 := 0; r0 < rows; r0 += batchRowBlock {
			r1, half := min(r0+batchRowBlock, rows), in/2
			// Only the network's input is scanned for zeros. A hidden row comes
			// out of a ReLU about half zero, and an indexed term costs about
			// two streamed ones, so gathering it would buy nothing.
			for r := r0; r < r1; r++ {
				s.nnz[r-r0] = -1
				if l == 0 {
					s.nnz[r-r0] = gatherNonZero(a[r*in:r*in+in], s.nz[(r-r0)*half:])
				}
			}
			for j := 0; j < out; j += 4 {
				// A width that is not a multiple of four ends in a group that
				// repeats its last output: same sum, stored more than once.
				j1, j2, j3 := min(j+1, out-1), min(j+2, out-1), min(j+3, out-1)
				w0, w1, w2, w3 := w[j*in:j*in+in], w[j1*in:j1*in+in], w[j2*in:j2*in+in], w[j3*in:j3*in+in]
				for r := r0; r < r1; r++ {
					var nz []int32 // nil: the row is dense
					if k := s.nnz[r-r0]; k >= 0 {
						nz = s.nz[(r-r0)*half:][:k]
					}
					cr := c[r*out : r*out+out]
					cr[j], cr[j1], cr[j2], cr[j3] = dot4(bias[j], bias[j1], bias[j2], bias[j3], w0, w1, w2, w3, a[r*in:r*in+in], nz)
				}
			}
			if l != last {
				h := c[r0*out : r1*out]
				for i, v := range h {
					// Selecting on the bits compiles to a conditional move: the
					// sign of a pre-activation is a coin flip to the predictor.
					b := math.Float64bits(v)
					if v < 0 {
						b = 0
					}
					h[i] = math.Float64frombits(b)
				}
			}
		}
	}
	return s.acts[len(n.sizes)-1][:rows*n.OutputSize()], nil
}

// gatherNonZero writes the indices of x's non-zero entries to nz, which holds
// len(x)/2 of them, and returns their count — or -1, leaving nz unspecified,
// once more than half of x is non-zero: such a row takes the dense loop.
//
//spear:noalloc
func gatherNonZero(x []float64, nz []int32) int {
	k := 0
	for i, v := range x {
		// Exact zero (of either sign): only those terms can be skipped.
		if v != 0 {
			if k == len(x)/2 {
				return -1
			}
			nz[k] = int32(i)
			k++
		}
	}
	return k
}

// dot4 is the inner loop of the forward kernel: four dot products of the
// input row x with the weight rows w0..w3, each started from its bias s and
// summed in ascending input order. That is the order of the naive one-output
// loop, so each result is bit-identical to it; computing four at once is what
// pays, because a single floating-point add chain is bound by add latency and
// four independent ones overlap. A non-nil nz lists x's non-zero indices in
// ascending order and only those are visited: every skipped term is an exact
// zero, which changes no partial sum as long as the weights are finite and
// no bias is -0.0 (a running sum can only be -0.0 if it started there).
//
//spear:noalloc
func dot4(s0, s1, s2, s3 float64, w0, w1, w2, w3, x []float64, nz []int32) (float64, float64, float64, float64) {
	w0, w1, w2, w3 = w0[:len(x)], w1[:len(x)], w2[:len(x)], w3[:len(x)]
	if nz != nil {
		for _, i := range nz {
			xi := x[i]
			s0 += w0[i] * xi
			s1 += w1[i] * xi
			s2 += w2[i] * xi
			s3 += w3[i] * xi
		}
		return s0, s1, s2, s3
	}
	for i, xi := range x {
		s0 += w0[i] * xi
		s1 += w1[i] * xi
		s2 += w2[i] * xi
		s3 += w3[i] * xi
	}
	return s0, s1, s2, s3
}

// axpy adds a times x to y, element by element: the inner loop of the backward
// kernel. A non-nil nz lists x's non-zero indices and only those are visited.
// Inlined, the loops are compiled with the kernel's many live values spilling
// to the stack inside them, which costs a dense pass a third of its time; a
// call per row does not show.
//
//spear:noalloc
//go:noinline
func axpy(y []float64, a float64, x []float64, nz []int32) {
	y = y[:len(x)]
	if nz != nil {
		for _, i := range nz {
			y[i] += a * x[i]
		}
		return
	}
	for i, xi := range x {
		y[i] += a * xi
	}
}

// growProbs replaces an out buffer of the wrong length. Sized callers (the
// scratch-backed inference path) never reach it.
//
//spear:slowpath
func growProbs(n int) []float64 { return make([]float64, n) }

// SoftmaxInto converts logits to probabilities in out, reused when it has the
// right length. Entries where mask is false get probability zero; a nil mask
// allows every action.
func SoftmaxInto(logits []float64, mask []bool, out []float64) ([]float64, error) {
	if mask != nil && len(mask) != len(logits) {
		return nil, errMaskSize(len(mask), len(logits))
	}
	if len(out) != len(logits) {
		out = growProbs(len(logits))
	}
	max := math.Inf(-1)
	any := false
	for i, v := range logits {
		if mask != nil && !mask[i] {
			continue
		}
		any = true
		if v > max {
			max = v
		}
	}
	if !any {
		return nil, ErrAllMasked
	}
	var sum float64
	for i, v := range logits {
		if mask != nil && !mask[i] {
			out[i] = 0
			continue
		}
		e := math.Exp(v - max)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out, nil
}

// ProbsBatchInto is ForwardBatchInto followed by a masked softmax per row.
// masks is row-major rows x OutputSize (nil allows every action in every
// row). The returned row-major probabilities are owned by the scratch.
//
//spear:noalloc
func (n *Network) ProbsBatchInto(s *Scratch, x []float64, rows int, masks []bool) ([]float64, error) {
	out := n.OutputSize()
	if masks != nil && len(masks) != rows*out {
		return nil, errBatchMasks(len(masks), rows, out)
	}
	logits, err := n.ForwardBatchInto(s, x, rows)
	if err != nil {
		return nil, err
	}
	probs := s.probs[:rows*out]
	for r := 0; r < rows; r++ {
		var mask []bool
		if masks != nil {
			mask = masks[r*out : (r+1)*out]
		}
		if _, err := SoftmaxInto(logits[r*out:(r+1)*out], mask, probs[r*out:(r+1)*out]); err != nil {
			return nil, errBatchRow(r, err)
		}
	}
	return probs, nil
}

// ProbsInto is the one-row case of ProbsBatchInto: one full inference with
// zero heap allocations. The returned slice is owned by the scratch.
//
//spear:noalloc
func (n *Network) ProbsInto(s *Scratch, x []float64, mask []bool) ([]float64, error) {
	return n.ProbsBatchInto(s, x, 1, mask)
}

// RowStateSize is how many values SaveRow writes and LoadRow reads: a row's
// input and hidden activations, everything BackwardBatchInto reads back from
// a forward pass.
func (n *Network) RowStateSize() int {
	total := 0
	for _, size := range n.sizes[:len(n.sizes)-1] {
		total += size
	}
	return total
}

// SaveRow copies row r's input and hidden activations of the scratch's most
// recent ForwardBatchInto into dst, RowStateSize values, layer after layer.
//
//spear:noalloc
func (n *Network) SaveRow(s *Scratch, r int, dst []float64) {
	for l, size := range n.sizes[:len(n.sizes)-1] {
		copy(dst[:size], s.acts[l][r*size:(r+1)*size])
		dst = dst[size:]
	}
}

// LoadRow puts activations saved by SaveRow, under the same weights, back as
// row r of the scratch, which must have been built for more than r rows. Once
// rows 0..k-1 are loaded BackwardBatchInto over k rows finds what a forward
// pass over those k inputs would have left.
//
//spear:noalloc
func (n *Network) LoadRow(s *Scratch, r int, src []float64) error {
	if r < 0 || r >= s.rows {
		return errBatchCold(s.rows, r+1)
	}
	for l, size := range n.sizes[:len(n.sizes)-1] {
		copy(s.acts[l][r*size:(r+1)*size], src[:size])
		src = src[size:]
	}
	return nil
}

// BackwardBatchInto accumulates gradients for a whole batch given dLogits,
// the row-major rows x OutputSize gradient of the loss with respect to the
// logits (for policy-gradient / cross-entropy losses with softmax this is
// (probs - onehot) * scale), and the activations of the scratch's first rows
// rows: those of its most recent ForwardBatchInto, which must have covered at
// least that many, or ones put there by LoadRow. Contributions are accumulated
// in row order, so splitting the same rows over several calls gives
// bit-identical gradients, while each weight row is streamed once per batch
// instead of once per sample. The first layer's weight gradient visits only a
// sparse input row's non-zeros: a skipped term is a signed zero added to a
// sum that began at +0 and so cannot be -0, which changes nothing as long as
// the deltas are finite (the caveat of dot4).
//
//spear:noalloc
func (n *Network) BackwardBatchInto(s *Scratch, dLogits []float64, rows int, g *Grads) error {
	out0 := n.OutputSize()
	if rows < 1 || len(dLogits) != rows*out0 {
		return errBatchDLogits(len(dLogits), rows, out0)
	}
	if err := n.checkScratch(s); err != nil {
		return err
	}
	if s.rows < rows {
		return errBatchCold(s.rows, rows)
	}
	in0, half := n.sizes[0], n.sizes[0]/2
	for r := 0; r < rows; r++ {
		s.batchNnz[r] = int32(gatherNonZero(s.acts[0][r*in0:(r+1)*in0], s.nz[r*half:]))
	}
	delta := s.deltaA[:rows*out0]
	spare := s.deltaB
	copy(delta, dLogits)
	for l := len(n.weights) - 1; l >= 0; l-- {
		in, out := n.sizes[l], n.sizes[l+1]
		prev := s.acts[l]
		// Parameter gradients: for a fixed (j, i) the rows accumulate in
		// ascending order, matching sequential per-sample backprop.
		for j := 0; j < out; j++ {
			grow := g.w[l][j*in : (j+1)*in]
			for r := 0; r < rows; r++ {
				dj := delta[r*out+j]
				// Exact zero: skipping it cannot change the accumulated sums.
				if dj == 0 {
					continue
				}
				g.b[l][j] += dj
				ar := prev[r*in : r*in+in]
				var nz []int32 // nil: the row is dense
				if k := s.batchNnz[r]; l == 0 && k >= 0 {
					nz = s.nz[r*half:][:k]
				}
				axpy(grow, dj, ar, nz)
			}
		}
		if l == 0 {
			break
		}
		// Propagate the batch delta through W and the ReLU. For a fixed
		// (r, i) the j contributions accumulate in ascending order.
		next := spare[:rows*in]
		for i := range next {
			next[i] = 0
		}
		w := n.weights[l]
		for j := 0; j < out; j++ {
			row := w[j*in : (j+1)*in]
			for r := 0; r < rows; r++ {
				dj := delta[r*out+j]
				// Exact zero: a zero delta propagates nothing backwards.
				if dj == 0 {
					continue
				}
				axpy(next[r*in:r*in+in], dj, row, nil)
			}
		}
		// ReLU derivative, by the bit select of the forward kernel: whether a
		// unit fired is as much a coin flip here as there.
		for i, a := range prev[:rows*in] {
			b := math.Float64bits(next[i])
			if a <= 0 {
				b = 0
			}
			next[i] = math.Float64frombits(b)
		}
		delta, spare = next, delta[:cap(delta)]
	}
	g.n += rows
	return nil
}
