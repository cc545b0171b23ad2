package drl

// SetMemoMaxSets lets tests outside the package run the same code with a
// smaller policy memo, or with none (0), and returns the function that puts
// the cap back. Contexts read the cap when they are built.
func SetMemoMaxSets(n int) (restore func()) {
	old := memoMaxSets
	memoMaxSets = n
	return func() { memoMaxSets = old }
}
