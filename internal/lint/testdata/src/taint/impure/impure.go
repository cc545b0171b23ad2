// Package impure is the nondeterministic dependency of the taint golden
// test. It is not on the deterministic list, so the direct rules skip it;
// the cross-package rule propagates its sources to deterministic callers.
package impure

import (
	"math/rand"
	"time"
)

// Draw consults the global math/rand source.
func Draw() int { return rand.Intn(10) }

// Stamp reads the wall clock.
func Stamp() int64 { return time.Now().UnixNano() }

// Deep reaches the global source through one more frame.
func Deep() int { return draw2() }

func draw2() int { return rand.Int() }

// Pure is deterministic.
func Pure(x int) int { return x * 2 }
