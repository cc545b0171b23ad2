package nn

import "math"

// The oracle: a naive per-sample forward pass, softmax and backward pass,
// written as plain triple loops over (layer, output, input) with freshly
// allocated buffers. It shares no code with the kernels, so the equivalence
// tests compare the blocked kernels against something that is not itself.
// Both accumulate a dot product in ascending input order starting from the
// bias, and a gradient in ascending sample order, which is why the comparison
// can demand bit equality.

// naiveLogits runs one input through the network layer by layer and returns
// the raw logits.
func naiveLogits(n *Network, x []float64) []float64 {
	acts := naiveActivations(n, x)
	return acts[len(acts)-1]
}

// naiveActivations runs one input through the network and returns every
// layer's values: the input, the hidden activations, the raw logits.
func naiveActivations(n *Network, x []float64) [][]float64 {
	cur := x
	acts := [][]float64{x}
	for l := range n.weights {
		in, out := n.sizes[l], n.sizes[l+1]
		next := make([]float64, out)
		for j := 0; j < out; j++ {
			sum := n.biases[l][j]
			for i := 0; i < in; i++ {
				sum += n.weights[l][j*in+i] * cur[i]
			}
			if l != len(n.weights)-1 && sum < 0 {
				sum = 0
			}
			next[j] = sum
		}
		cur = next
		acts = append(acts, cur)
	}
	return acts
}

// naiveBackward adds one sample's gradients to w and b (shaped like the
// network's weights and biases) given the gradient of the loss with respect
// to its logits. It visits every term, zero or not.
func naiveBackward(n *Network, x, dLogits []float64, w, b [][]float64) {
	acts := naiveActivations(n, x)
	delta := dLogits
	for l := len(n.weights) - 1; l >= 0; l-- {
		in, out := n.sizes[l], n.sizes[l+1]
		for j := 0; j < out; j++ {
			b[l][j] += delta[j]
			for i := 0; i < in; i++ {
				w[l][j*in+i] += delta[j] * acts[l][i]
			}
		}
		prev := make([]float64, in)
		for i := 0; i < in; i++ {
			for j := 0; j < out; j++ {
				prev[i] += delta[j] * n.weights[l][j*in+i]
			}
			if acts[l][i] <= 0 { // a unit that did not fire passes nothing back
				prev[i] = 0
			}
		}
		delta = prev
	}
}

// naiveSoftmax is the masked, max-shifted softmax; masked entries get zero.
func naiveSoftmax(logits []float64, mask []bool) []float64 {
	max := math.Inf(-1)
	for i, v := range logits {
		if (mask == nil || mask[i]) && v > max {
			max = v
		}
	}
	out := make([]float64, len(logits))
	var sum float64
	for i, v := range logits {
		if mask == nil || mask[i] {
			out[i] = math.Exp(v - max)
			sum += out[i]
		}
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
