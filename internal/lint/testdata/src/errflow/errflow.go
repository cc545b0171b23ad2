// Golden fixture of the errflow check: every error value must be checked,
// returned, passed on, or explicitly discarded at a //spear:ignoreerr site.
// The analysis is a definite-use walk along every path, so errors that are
// only sometimes inspected — or overwritten before any read — are findings
// too, not just syntactic `_ =` drops.
package errflow

import (
	"errors"
	"fmt"
	"strings"
)

func mayFail(n int) error {
	if n < 0 {
		return errors.New("negative")
	}
	return nil
}

func produce(n int) (int, error) {
	if n == 0 {
		return 0, errors.New("zero")
	}
	return n * 2, nil
}

// checked: the error is read on every path.
func checked(n int) int {
	v, err := produce(n)
	if err != nil {
		return -1
	}
	return v
}

// returned: handing the error to the caller is a use.
func returned(n int) error {
	return mayFail(n)
}

// droppedResult: an expression statement discards the error outright.
func droppedResult(n int) {
	mayFail(n) // want "mayFail is an unchecked error"
}

// blankDiscard: a blank assignment slot drops the error without a marker.
func blankDiscard(n int) int {
	v, _ := produce(n) // want "produce discarded with _"
	return v
}

// neverRead: the error lands in a named result, but the explicit return nil
// drops it — no path reads or returns the assigned value.
func neverRead(n int) (err error) {
	err = mayFail(n) // want "error assigned to err is never checked"
	return nil
}

var _ = neverRead

// partiallyRead: the error is read under one branch only; the fallthrough
// path drops it, so definite-use reports the assignment.
func partiallyRead(n int, verbose bool) {
	err := mayFail(n) // want "error assigned to err is never checked"
	if verbose {
		fmt.Println(err)
	}
}

// overwritten: the first error is replaced before anything reads it.
func overwritten(n int) error {
	err := mayFail(n) // want "error assigned to err is overwritten before being checked"
	err = mayFail(n + 1)
	return err
}

// loopAccumulate: reads inside the loop body keep the value live; the walk
// re-runs the body to a fixpoint, so no false positive.
func loopAccumulate(ns []int) int {
	bad := 0
	for _, n := range ns {
		err := mayFail(n)
		if err != nil {
			bad++
		}
	}
	return bad
}

// ignored: the marker with a reason is an audited discard.
func ignored(n int) {
	//spear:ignoreerr(fixture demonstrates the audited discard)
	mayFail(n)
}

// ignoredNoReason: the marker without a reason is itself a finding.
func ignoredNoReason(n int) {
	//spear:ignoreerr
	mayFail(n) // want "ignoreerr requires a reason"
}

// builderExempt: strings.Builder writes cannot fail and are exempt without
// a marker, as is the fmt print family.
func builderExempt(parts []string) string {
	var b strings.Builder
	for _, p := range parts {
		b.WriteString(p)
	}
	fmt.Println(b.Len())
	return b.String()
}

// deferDrop: a deferred call's error has nowhere to go.
func deferDrop(n int) {
	defer mayFail(n) // want "deferred call discards the error result of"
}

// namedResult: a naked return reads the named error result.
func namedResult(n int) (err error) {
	err = mayFail(n)
	return
}

// closureChecked: closures are analyzed as their own bodies.
func closureChecked(n int) func() int {
	return func() int {
		v, err := produce(n)
		if err != nil {
			return -1
		}
		return v
	}
}

// closureDrop: a drop inside a closure is still a drop.
func closureDrop(n int) func() {
	return func() {
		mayFail(n) // want "mayFail is an unchecked error"
	}
}

var (
	_ = checked
	_ = returned
	_ = droppedResult
	_ = blankDiscard
	_ = partiallyRead
	_ = overwritten
	_ = loopAccumulate
	_ = ignored
	_ = ignoredNoReason
	_ = builderExempt
	_ = deferDrop
	_ = namedResult
	_ = closureChecked
	_ = closureDrop
)
