// Package transnoalloc exercises the noalloc check's call rule: every path
// out of a //spear:noalloc function must stay allocation-free, end in a
// //spear:slowpath escape hatch, or carry //spear:dyncall at dynamic sites.
package transnoalloc

import "fmt"

// Summer is the interface behind the unresolvable-call case.
type Summer interface {
	Sum(xs []int) int
}

// helper and mid form a clean two-frame chain.
func helper(x int) int { return mid(x) }

func mid(x int) int { return x + 1 }

// dirty reaches an allocation two frames down.
func dirty(n int) []int { return grow(n) }

func grow(n int) []int { return make([]int, n) }

// coldErr is the audited escape hatch.
//
//spear:slowpath
func coldErr(n int) error { return fmt.Errorf("transnoalloc: %d", n) }

// stub has no body to analyze (the assembly-stub case).
func stub() int

//spear:noalloc
func Fast(s Summer, f func() int, xs []int) (int, error) {
	v := helper(len(xs)) // clean transitively: no diagnostic
	if v < 0 {
		return 0, coldErr(v) // slowpath: no diagnostic
	}
	_ = dirty(v)   // want 6 "via internal/lint/testdata/src/transnoalloc.grow"
	n := s.Sum(xs) // want 7 "call through interface method Summer.Sum is unresolvable from //spear:noalloc context"
	//spear:dyncall
	n += s.Sum(xs) // audited dynamic site: no diagnostic
	n += f()       // want 7 "call through function value is unresolvable"
	n += stub()    // want 7 "no analyzable body"
	return n + v, nil
}
