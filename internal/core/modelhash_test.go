package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// quickModelHash is the SHA-256 of nn.Save's output for quickModel's network.
// It was captured from per-sample forward/backward training (commit 465ddf6),
// so it also certifies that minibatches through the batch kernels accumulate
// in the same order.
const quickModelHash = "bd7ce11efc6d0f0ed7de773233763487f138aca39000478813f130b34e68b310"

// TestBuildModelHashPinned holds the whole training pipeline (imitation, then
// REINFORCE) to a bit-identical network: any change of arithmetic order in nn
// or drl moves the hash. A change that means to alter the arithmetic re-pins
// it and says so.
func TestBuildModelHashPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hash pinned on amd64; other architectures may fuse multiply-adds")
	}
	var buf bytes.Buffer
	if err := quickModel(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != quickModelHash {
		t.Fatalf("model hash = %s, want %s", got, quickModelHash)
	}
}
