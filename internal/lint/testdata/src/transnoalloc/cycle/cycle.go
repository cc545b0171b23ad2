// Package cycle is the recursive-call fixture of the noalloc check's call
// rule: the allocation sits behind a call cycle that the two //spear:noalloc
// roots enter at different members. Both must be reported, on every run.
package cycle

var sink []int

//spear:noalloc
func Hot() { a(1) } // want 14 "make at internal/lint/testdata/src/transnoalloc/cycle/cycle.go:26 via internal/lint/testdata/src/transnoalloc/cycle.x"

//spear:noalloc
func Hot2() { b(1) } // want 15 "via internal/lint/testdata/src/transnoalloc/cycle.a -> internal/lint/testdata/src/transnoalloc/cycle.x"

// a recurses into b and allocates through x.
func a(n int) {
	if n > 0 {
		b(n - 1)
	}
	x()
}

// b closes the cycle.
func b(n int) { a(n) }

// x is the only allocation.
func x() { sink = make([]int, 8) }
