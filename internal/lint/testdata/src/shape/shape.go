// Golden fixture of the shape check: constant-propagated buffer lengths and
// network dimensions must agree at every Into-family call site. The nn stub
// package next door mirrors the real API surface.
package shape

import "spear/internal/lint/testdata/src/shape/nn"

// good threads correctly-sized buffers through the whole family.
func good() {
	net, err := nn.New([]int{4, 8, 3}, 1)
	if err != nil {
		return
	}
	s := net.NewScratch()
	x := make([]float64, 4)
	mask := make([]bool, 3)
	xb := make([]float64, 2*4)
	masks := make([]bool, 2*3)
	d := make([]float64, 2*3)
	var g nn.Grads
	net.ProbsInto(s, x, mask)
	net.ForwardBatchInto(s, xb, 2)
	net.ProbsBatchInto(s, xb, 2, masks)
	net.BackwardBatchInto(s, d, 2, &g)
}

// badInput: the input buffer disagrees with the first layer size.
func badInput() {
	net, _ := nn.New([]int{4, 8, 3}, 1)
	s := net.NewScratch()
	x := make([]float64, 7)
	net.ProbsInto(s, x, nil) // want "input x has length 7 but the network input dimension is 4"
}

// badMask: the action mask must match the output layer.
func badMask() {
	net, _ := nn.New([]int{4, 8, 3}, 1)
	s := net.NewScratch()
	x := make([]float64, 4)
	mask := make([]bool, 2)
	net.ProbsInto(s, x, mask) // want "mask has length 2 but the network output dimension is 3"
}

// badDLogits: the backward seed is rows x the output layer (2 x 3 = 6).
func badDLogits() {
	net, _ := nn.New([]int{4, 8, 3}, 1)
	s := net.NewScratch()
	d := make([]float64, 5)
	var g nn.Grads
	net.BackwardBatchInto(s, d, 2, &g) // want "batch dLogits has length 5 but the network rows×output size is 6"
}

// badBatch: batch buffers scale with the row count (2 rows x 4 inputs = 8).
func badBatch() {
	net, _ := nn.New([]int{4, 8, 3}, 1)
	s := net.NewScratch()
	rows := 2
	xb := make([]float64, 9)
	net.ForwardBatchInto(s, xb, rows) // want "batch input x has length 9 but the network rows×input size is 8"
}

// crossScratch: a scratch built from one network cannot serve another.
func crossScratch() {
	netA, _ := nn.New([]int{4, 8, 3}, 1)
	netB, _ := nn.New([]int{5, 8, 2}, 1)
	sB := netB.NewScratch()
	x := make([]float64, 4)
	netA.ProbsInto(sB, x, nil) // want "scratch was built for dims [5 8 2] but the receiver network has dims [4 8 3]"
}

// joinSafe: dims differ across the branches, so the join drops the fact and
// the analysis stays silent rather than guessing.
func joinSafe(flag bool) {
	dims := []int{4, 8, 3}
	if flag {
		dims = []int{6, 6}
	}
	net, _ := nn.New(dims, 1)
	s := net.NewScratch()
	x := make([]float64, 7)
	net.ProbsInto(s, x, nil) // dims unknown after the join: no finding
}

// computedRows: arithmetic over known ints still propagates (3*4 = 12 ok).
func computedRows() {
	net, _ := nn.New([]int{4, 8, 3}, 1)
	s := net.NewScratch()
	rows := 3
	xb := make([]float64, rows*4)
	net.ForwardBatchInto(s, xb, rows)
}

var (
	_ = good
	_ = badInput
	_ = badMask
	_ = badDLogits
	_ = badBatch
	_ = crossScratch
	_ = joinSafe
	_ = computedRows
)
