// Package nn stubs the real spear/internal/nn API surface for the shape
// fixture: same constructor and Into-family method names and argument
// positions, no math. The shape check recognizes it because the import path
// ends in "/nn".
package nn

// Network is a stub feed-forward network.
type Network struct{ sizes []int }

// Scratch is a stub per-caller workspace.
type Scratch struct{ _ int }

// Grads is a stub gradient accumulator.
type Grads struct{ _ int }

// New mirrors nn.New's shape: first argument is the layer sizes.
func New(sizes []int, seed int64) (*Network, error) {
	return &Network{sizes: sizes}, nil
}

// NewScratch mirrors the real scratch constructor.
func (n *Network) NewScratch() *Scratch { return &Scratch{} }

func (n *Network) ProbsInto(s *Scratch, x []float64, mask []bool) ([]float64, error) {
	return nil, nil
}

func (n *Network) ForwardBatchInto(s *Scratch, x []float64, rows int) ([]float64, error) {
	return nil, nil
}

func (n *Network) ProbsBatchInto(s *Scratch, x []float64, rows int, masks []bool) ([]float64, error) {
	return nil, nil
}

func (n *Network) BackwardBatchInto(s *Scratch, dLogits []float64, rows int, g *Grads) error {
	return nil
}
