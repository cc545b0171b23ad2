package simenv

import "math/rand"

// BatchPolicyContext is an opaque bundle of per-goroutine batch buffers
// owned by a policy that implements BatchPolicy.
type BatchPolicyContext interface{}

// BatchPolicy is an optional Policy extension: ChooseBatch picks actions for
// several independent episodes in one evaluation — for a neural policy, one
// batched matrix-matrix network pass instead of one matrix-vector pass per
// episode. For every row the choice must equal what Choose would pick given
// the same state and rng. Nothing in the product calls it: rollouts go
// through RolloutContext one episode at a time. The declarations remain
// because the frozen benchmark driver (bench/trace.go) asserts and forwards
// them.
type BatchPolicy interface {
	Policy
	// NewBatchContext allocates private buffers for batches of up to maxRows
	// episodes. A context is never shared across goroutines.
	NewBatchContext(maxRows int) BatchPolicyContext
	// ChooseBatch writes one action per episode into out: out[i] is the
	// choice for envs[i] given legal[i] and rngs[i]. All slices have equal
	// length, at most the maxRows of ctx. legal rows are never empty and
	// must not be modified or retained.
	ChooseBatch(ctx BatchPolicyContext, envs []*Env, legal [][]Action, rngs []*rand.Rand, out []Action) error
}
