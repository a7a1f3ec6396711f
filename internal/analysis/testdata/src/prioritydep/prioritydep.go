// Dependency fixture for cross-package prioritydiscipline checking: Raise
// changes a priority and Grow allocates, each only a violation when a
// spin-locked caller in another package reaches it. This package does not
// import the spin lock, so nothing is reported here.
package prioritydepfix

import "threads"

// Raise boosts t: it takes t's donation lock.
func Raise(t *threads.Thread) {
	t.SetPriority(5)
}

// Grow appends, which may allocate: a Nub-invariant violation, not a
// priority one.
func Grow(s []int) []int {
	return append(s, 1)
}
