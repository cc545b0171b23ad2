// Package nn is a small, dependency-free feedforward neural network with
// ReLU hidden layers, a (maskable) softmax output, backpropagation and
// RMSProp — everything the paper's policy network needs (§IV: three hidden
// layers of 256/32/32 units, softmax output, RMSProp with lr 1e-4, ρ 0.9).
// It replaces the Theano dependency of the original implementation.
package nn

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
)

// Network is a fully connected network: len(sizes)-1 layers, ReLU between
// hidden layers, raw logits at the output (softmax applied separately so
// that masking is possible). Inference and backprop live in kernel.go. A
// network is safe for concurrent inference, each goroutine on its own Scratch,
// as long as no Apply call runs concurrently.
type Network struct {
	sizes   []int
	weights [][]float64 // weights[l][j*in+i]: layer l, output j, input i
	biases  [][]float64

	// RMSProp accumulators.
	msW [][]float64
	msB [][]float64

	// gen counts the Apply calls on this network, the only in-place weight
	// mutation, so a cache of its outputs can tell when it has gone stale.
	gen uint64

	// The vector kernel's copy of the parameters, written by repack and
	// nil where the CPU lacks AVX2. packed[l] holds layer l's weights in
	// blocks of 32 output units, input major inside a block:
	// packed[l][(b*in+i)*32+k] = weights[l][(32b+k)*in+i]. packedB[l] holds
	// its biases. Both are zero-padded to whole blocks, so a width that is
	// not a multiple of 32 needs no tail loop. dense lists 0, 1, 2, … up to
	// the widest layer input: the indices of a row the kernel visits in full.
	packed  [][]float64
	packedB [][]float64
	dense   []int32
}

// Errors returned by the package.
var (
	ErrBadShape  = errors.New("nn: invalid network shape")
	ErrBadInput  = errors.New("nn: input size mismatch")
	ErrAllMasked = errors.New("nn: every action is masked")
)

// New builds a network with the given layer sizes (input first, output
// last) and He-initialized weights.
func New(sizes []int, rng *rand.Rand) (*Network, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("%w: need at least input and output, got %v", ErrBadShape, sizes)
	}
	for _, s := range sizes {
		if s < 1 {
			return nil, fmt.Errorf("%w: non-positive layer size in %v", ErrBadShape, sizes)
		}
	}
	n := &Network{sizes: append([]int(nil), sizes...)}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		w := make([]float64, in*out)
		std := math.Sqrt(2.0 / float64(in))
		for i := range w {
			w[i] = rng.NormFloat64() * std
		}
		n.weights = append(n.weights, w)
		n.biases = append(n.biases, make([]float64, out))
		n.msW = append(n.msW, make([]float64, in*out))
		n.msB = append(n.msB, make([]float64, out))
	}
	n.repack()
	return n, nil
}

// repack rewrites the vector kernel's packed copy of the weights and biases
// in place, allocating it on the first call. Every writer of the parameters
// (New, Load, Clone, Apply) ends with it.
func (n *Network) repack() {
	if !haveAVX2 {
		return
	}
	if n.packed == nil {
		n.packed = make([][]float64, len(n.weights))
		n.packedB = make([][]float64, len(n.weights))
		for l := range n.weights {
			in, blocks := n.sizes[l], (n.sizes[l+1]+31)/32
			n.packed[l] = make([]float64, blocks*32*in)
			n.packedB[l] = make([]float64, blocks*32)
		}
		n.dense = make([]int32, slices.Max(n.sizes[:len(n.sizes)-1]))
		for i := range n.dense {
			n.dense[i] = int32(i)
		}
	}
	for l, w := range n.weights {
		in, out := n.sizes[l], n.sizes[l+1]
		for j0 := 0; j0 < out; j0 += 32 {
			// Written in packed order: the 32 rows read stay in L1 while
			// the block's whole copy would not.
			blk, units := n.packed[l][j0*in:], min(32, out-j0)
			for i := 0; i < in; i++ {
				dst := blk[i*32 : i*32+units]
				for k := range dst {
					dst[k] = w[(j0+k)*in+i]
				}
			}
		}
		copy(n.packedB[l], n.biases[l])
	}
}

// Sizes returns a copy of the layer sizes.
func (n *Network) Sizes() []int { return append([]int(nil), n.sizes...) }

// InputSize returns the expected input dimension.
func (n *Network) InputSize() int { return n.sizes[0] }

// OutputSize returns the number of logits.
func (n *Network) OutputSize() int { return n.sizes[len(n.sizes)-1] }

// Generation changes whenever the weights do: two inferences made under the
// same generation ran the same function. Like inference itself it must not
// race with Apply.
func (n *Network) Generation() uint64 { return n.gen }

// Grads accumulates parameter gradients across a mini-batch.
type Grads struct {
	w [][]float64
	b [][]float64
	n int // samples accumulated
}

// NewGrads returns a zeroed gradient accumulator shaped like the network.
func (n *Network) NewGrads() *Grads {
	g := &Grads{}
	for l := range n.weights {
		g.w = append(g.w, make([]float64, len(n.weights[l])))
		g.b = append(g.b, make([]float64, len(n.biases[l])))
	}
	return g
}

// Layer returns the gradients accumulated for layer l's weights, output
// major as the network stores them (w[j*in+i]: output j, input i), and for
// its biases. The slices are g's own, for reading: what a check that compares
// two batches bit for bit needs.
func (g *Grads) Layer(l int) (w, b []float64) { return g.w[l], g.b[l] }

// Samples returns how many samples were accumulated.
func (g *Grads) Samples() int { return g.n }

// AddSamples counts k additional samples that contributed zero gradient
// (for example zero-advantage REINFORCE steps whose backward pass is
// skipped). They still belong to the batch, so Apply's 1/n scaling must
// average over them; omitting them silently inflates the effective
// learning rate.
func (g *Grads) AddSamples(k int) { g.n += k }

// Norm returns the L2 norm of the mean gradient — the same 1/n-scaled
// gradient Apply feeds to the optimizer. Zero for an empty batch.
func (g *Grads) Norm() float64 {
	if g.n == 0 {
		return 0
	}
	var sum float64
	for l := range g.w {
		for _, v := range g.w[l] {
			sum += float64(v * v)
		}
		for _, v := range g.b[l] {
			sum += float64(v * v)
		}
	}
	return math.Sqrt(sum) / float64(g.n)
}

// RMSProp hyperparameters (§IV).
type RMSProp struct {
	LR  float64 // learning rate α; paper: 1e-4
	Rho float64 // decay ρ; paper: 0.9
	Eps float64 // ε; paper: 1e-9
}

// DefaultRMSProp returns the paper's optimizer settings.
func DefaultRMSProp() RMSProp { return RMSProp{LR: 1e-4, Rho: 0.9, Eps: 1e-9} }

// Apply performs one RMSProp update with the mean gradient of the batch and
// consumes it: g comes back zeroed, ready to accumulate the next batch. The
// RMSProp accumulators persist inside the network.
func (n *Network) Apply(g *Grads, opt RMSProp) error {
	if g.n == 0 {
		return errors.New("nn: empty gradient batch")
	}
	scale := 1.0 / float64(g.n)
	for l := range n.weights {
		for i, raw := range g.w[l] {
			grad := raw * scale
			n.msW[l][i] = float64(opt.Rho*n.msW[l][i]) + float64((1-opt.Rho)*grad*grad)
			n.weights[l][i] -= opt.LR * grad / (math.Sqrt(n.msW[l][i]) + opt.Eps)
			g.w[l][i] = 0
		}
		for i, raw := range g.b[l] {
			grad := raw * scale
			n.msB[l][i] = float64(opt.Rho*n.msB[l][i]) + float64((1-opt.Rho)*grad*grad)
			n.biases[l][i] -= opt.LR * grad / (math.Sqrt(n.msB[l][i]) + opt.Eps)
			g.b[l][i] = 0
		}
	}
	g.n = 0
	n.gen++
	n.repack()
	return nil
}

// networkState is the gob wire format.
type networkState struct {
	Sizes   []int
	Weights [][]float64
	Biases  [][]float64
}

// Save serializes the network weights (not the optimizer state).
func (n *Network) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(networkState{
		Sizes:   n.sizes,
		Weights: n.weights,
		Biases:  n.biases,
	})
}

// Load reads a network previously written by Save. Optimizer accumulators
// start from zero. Every layer's shape is checked before anything is
// allocated, including a weight count that overflows an int. A NaN or
// infinite parameter, or a -0.0 bias, is refused: the forward kernels skip
// zero inputs, which is exact only without them (see dot4). New and Apply
// never produce one.
func Load(r io.Reader) (*Network, error) {
	var st networkState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("nn: decode: %w", err)
	}
	if len(st.Sizes) < 2 || len(st.Weights) != len(st.Sizes)-1 || len(st.Biases) != len(st.Sizes)-1 {
		return nil, fmt.Errorf("%w: corrupt saved model", ErrBadShape)
	}
	if slices.Min(st.Sizes) < 1 {
		return nil, fmt.Errorf("%w: non-positive layer size in %v", ErrBadShape, st.Sizes)
	}
	for l := 0; l < len(st.Sizes)-1; l++ {
		in, out := st.Sizes[l], st.Sizes[l+1]
		if out > math.MaxInt/in {
			return nil, fmt.Errorf("%w: layer %d has %d x %d weights, more than an int counts", ErrBadShape, l, in, out)
		}
		if len(st.Weights[l]) != in*out || len(st.Biases[l]) != out {
			return nil, fmt.Errorf("%w: layer %d shape mismatch", ErrBadShape, l)
		}
		for i, v := range st.Weights[l] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: layer %d weight %d is %v", ErrBadShape, l, i, v)
			}
		}
		for j, v := range st.Biases[l] {
			if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 && math.Signbit(v) {
				return nil, fmt.Errorf("%w: layer %d bias %d is %v", ErrBadShape, l, j, v)
			}
		}
	}
	n := &Network{sizes: st.Sizes, weights: st.Weights, biases: st.Biases}
	for l, w := range st.Weights {
		n.msW = append(n.msW, make([]float64, len(w)))
		n.msB = append(n.msB, make([]float64, len(st.Biases[l])))
	}
	n.repack()
	return n, nil
}

// Clone returns a deep copy of the network, including optimizer state.
func (n *Network) Clone() *Network {
	c := &Network{sizes: append([]int(nil), n.sizes...)}
	cp := func(src [][]float64) [][]float64 {
		out := make([][]float64, len(src))
		for i, s := range src {
			out[i] = append([]float64(nil), s...)
		}
		return out
	}
	c.weights = cp(n.weights)
	c.biases = cp(n.biases)
	c.msW = cp(n.msW)
	c.msB = cp(n.msB)
	c.repack()
	return c
}
