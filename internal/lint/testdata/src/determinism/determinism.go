// Package determinism is spear-vet golden-test input for the determinism
// check. Every "want" comment names a substring of the diagnostic expected
// on its line; lines without one must stay clean.
package determinism

// SumValues iterates a map twice: the bare range is flagged, the annotated
// one passes.
func SumValues(m map[string]int) int {
	sum := 0
	for _, v := range m { // want "range over map"
		sum += v
	}
	//spear:sorted — summation is order-insensitive.
	for _, v := range m {
		sum += v
	}
	return sum
}

// SliceRange iterates a slice: only map iteration order is nondeterministic.
func SliceRange(xs []int) int {
	sum := 0
	for _, v := range xs {
		sum += v
	}
	return sum
}
