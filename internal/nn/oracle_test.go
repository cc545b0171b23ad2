package nn

import "math"

// The oracle: a naive per-sample forward pass and softmax, written as plain
// triple loops over (layer, output, input) with freshly allocated buffers. It
// shares no code with the kernels, so the equivalence tests compare the
// blocked kernel against something that is not itself. Both accumulate a dot
// product in ascending input order starting from the bias, which is why the
// comparison can demand bit equality.

// naiveLogits runs one input through the network layer by layer and returns
// the raw logits.
func naiveLogits(n *Network, x []float64) []float64 {
	cur := x
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
	}
	return cur
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
