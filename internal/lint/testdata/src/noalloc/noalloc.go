// Package noalloc is spear-vet golden-test input for the noalloc check's
// rule on a function's own body.
package noalloc

import "fmt"

// point gives the composite-literal case a type to build.
type point struct {
	X, Y int
}

// release is a callee for the defer case.
func release() {}

// Hot is the annotated fast path: every allocating construct below is a
// finding.
//
//spear:noalloc
func Hot(dst []int, label string) ([]int, error) {
	buf := make([]int, 4)          // want "make in"
	ptr := new(int)                // want "new in"
	dst = append(dst, *ptr)        // want "append in"
	p := point{X: 1, Y: 2}         // want "composite literal"
	f := func() int { return p.X } // want "closure in"
	defer release()                // want "defer in"
	msg := "x" + label             // want "string concatenation"
	msg += label                   // want "string concatenation"
	if len(buf) == f() {           // want "call through function value is unresolvable"
		return nil, fmt.Errorf("collision: %s", msg) // want "fmt.Errorf call"
	}
	return dst, nil
}

// Cold is unannotated: the same constructs pass, which is how the repo keeps
// error construction and buffer growth out of the fast paths.
func Cold(n int) ([]int, error) {
	if n < 0 {
		return nil, fmt.Errorf("negative length %d", n)
	}
	return make([]int, n), nil
}
