// The one inference path: ForwardBatchInto is the only forward kernel and
// the two phases of backward.go the only backward one. They work on a
// row-major batch held in a caller-owned Scratch; a single state is the rows=1
// call (ProbsInto).
// Evaluating several states per pass streams each weight row once per row
// block instead of once per state, and per-row arithmetic (accumulation order
// included) does not depend on the batch size, so any split of the same rows
// into batches gives bit-identical results. The forward kernel computes four
// outputs per pass over an input row (dot4), or on an AVX2 CPU 32 at once in
// vector registers (dot32, from the packed weights of nn.go), and both
// kernels skip the zeros of a sparse network input; none of this changes a
// bit of any sum (see dot4 and dot32).
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
	// nz holds the non-zero indices of the current row block's network
	// inputs, InputSize/2 per row, and nnz their count per row, -1 for a row
	// that takes the dense loop.
	nz  []int32
	nnz [batchRowBlock]int
	// tape carries BackwardBatchInto's rows between the two backward phases.
	// Built and grown by the first call that needs it.
	tape *Tape
	// partW, partB and touched are SumBlock's partial sums of one block, its
	// weights and biases, and the units a row reached; live lists the units a
	// row's deltas reach. Grown on first use.
	partW   []float64
	partB   []float64
	live    []int32
	touched []bool
	rows    int // rows the buffers are currently sized for
}

// NewScratch allocates a scratch buffer set shaped like the network and sized
// for one row, so a single-row call never allocates. Larger batches grow it
// on first use.
func (n *Network) NewScratch() *Scratch {
	s := &Scratch{acts: make([][]float64, len(n.sizes))}
	n.ensureRows(s, 1)
	return s
}

// ensureRows grows the scratch's buffers to hold at least rows rows. Growth
// allocates; once sized, the kernels are allocation-free.
func (n *Network) ensureRows(s *Scratch, rows int) {
	if s.rows >= rows {
		return
	}
	for l, size := range n.sizes {
		s.acts[l] = make([]float64, rows*size)
	}
	s.probs = make([]float64, rows*n.OutputSize())
	s.nz = make([]int32, min(rows, batchRowBlock)*(n.sizes[0]/2))
	s.rows = rows
}

// checkScratch verifies that s was built for a network of n's shape.
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

// Cold-path error constructors for the allocation-free kernels: fmt
// allocates, so it stays out of their bodies.
func errBatchSize(rows int) error {
	return fmt.Errorf("%w: batch of %d rows", ErrBadInput, rows)
}

func errBatchValues(got, rows, in int) error {
	return fmt.Errorf("%w: got %d values, want %d rows x %d", ErrBadInput, got, rows, in)
}

func errBatchMasks(got, rows, out int) error {
	return fmt.Errorf("%w: masks %d, want %d rows x %d", ErrBadInput, got, rows, out)
}

func errBatchRow(r int, err error) error {
	return fmt.Errorf("row %d: %w", r, err)
}

func errBatchDLogits(got, rows, out int) error {
	return fmt.Errorf("%w: dLogits %d, want %d rows x %d", ErrBadInput, got, rows, out)
}

func errBatchCold(have, want int) error {
	return fmt.Errorf("%w: scratch holds %d rows, want %d (run ForwardBatchInto first)", ErrBadInput, have, want)
}

func errMaskSize(mask, logits int) error {
	return fmt.Errorf("%w: mask size %d, logits %d", ErrBadInput, mask, logits)
}

// ForwardBatchInto computes logits for a row-major batch x (rows vectors of
// InputSize each) into the scratch, returning the row-major rows x OutputSize
// logits. The returned slice is owned by the scratch and valid until its next
// call. Buffer growth happens in ensureRows; once the scratch is warm this
// kernel never touches the heap.
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
			if useAVX2 {
				n.forward32(l, s, a, c, r0, r1)
			} else {
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

// forward32 is the vector kernel's pass over rows r0..r1-1 of layer l: for
// each block of 32 output units, dot32 on each row, walking the row's
// gathered non-zero inputs or, for a dense row, every input. A partial last
// block (a width that is not a multiple of 32) computes its zero-weight
// padding units into a stack buffer and keeps the real ones.
func (n *Network) forward32(l int, s *Scratch, a, c []float64, r0, r1 int) {
	in, out := n.sizes[l], n.sizes[l+1]
	p, pb, half := n.packed[l], n.packedB[l], in/2
	for b := 0; b*32 < out; b++ {
		w, bias := p[b*32*in:(b+1)*32*in], (*[32]float64)(pb[b*32:])
		for r := r0; r < r1; r++ {
			idx := n.dense[:in]
			if k := s.nnz[r-r0]; k >= 0 {
				idx = s.nz[(r-r0)*half:][:k]
			}
			x, cr := a[r*in:r*in+in], c[r*out+b*32:r*out+out]
			if len(cr) >= 32 {
				dot32(w, bias, x, idx, (*[32]float64)(cr))
				continue
			}
			var tail [32]float64
			dot32(w, bias, x, idx, &tail)
			copy(cr, tail[:])
		}
	}
}

// gatherNonZero writes the indices of x's non-zero entries to nz, which holds
// len(x)/2 of them, and returns their count — or -1, leaving nz unspecified,
// once more than half of x is non-zero: such a row takes the dense loop.
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
func dot4(s0, s1, s2, s3 float64, w0, w1, w2, w3, x []float64, nz []int32) (float64, float64, float64, float64) {
	w0, w1, w2, w3 = w0[:len(x)], w1[:len(x)], w2[:len(x)], w3[:len(x)]
	if nz != nil {
		for _, i := range nz {
			xi := x[i]
			s0 += float64(w0[i] * xi)
			s1 += float64(w1[i] * xi)
			s2 += float64(w2[i] * xi)
			s3 += float64(w3[i] * xi)
		}
		return s0, s1, s2, s3
	}
	for i, xi := range x {
		s0 += float64(w0[i] * xi)
		s1 += float64(w1[i] * xi)
		s2 += float64(w2[i] * xi)
		s3 += float64(w3[i] * xi)
	}
	return s0, s1, s2, s3
}

// axpy adds a times x to y, element by element: the inner loop of the backward
// kernel. A non-nil nz lists x's non-zero indices and only those are visited.
// Inlined, the loops are compiled with the kernel's many live values spilling
// to the stack inside them, which costs a dense pass a third of its time; a
// call per row does not show.
//
//go:noinline
func axpy(y []float64, a float64, x []float64, nz []int32) {
	y = y[:len(x)]
	if nz != nil {
		for _, i := range nz {
			y[i] += float64(a * x[i])
		}
		return
	}
	for i, xi := range x {
		y[i] += float64(a * xi)
	}
}

// growProbs replaces an out buffer of the wrong length. Sized callers (the
// scratch-backed inference path) never reach it.
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
func (n *Network) ProbsInto(s *Scratch, x []float64, mask []bool) ([]float64, error) {
	return n.ProbsBatchInto(s, x, 1, mask)
}

// RowStateSize is how many values SaveRow writes and PushRow reads: a row's
// input and hidden activations, everything the backward pass reads back from
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
func (n *Network) SaveRow(s *Scratch, r int, dst []float64) {
	for l, size := range n.sizes[:len(n.sizes)-1] {
		copy(dst[:size], s.acts[l][r*size:(r+1)*size])
		dst = dst[size:]
	}
}
