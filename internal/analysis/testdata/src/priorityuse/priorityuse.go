// Fixture for cross-package prioritydiscipline checking: the SetPriority
// call is inside prioritydep.Raise, reachable only through its summary. A
// same-package run of this package alone reports nothing
// (interproc_test.go pins that miss).
package priorityusefix

import (
	"threads"
	dep "threads/internal/analysis/testdata/src/prioritydep"
	"threads/internal/spinlock"
)

var (
	lk  spinlock.Lock
	buf []int
)

func bad(t *threads.Thread) {
	lk.Lock()
	dep.Raise(t) // want "call to Raise, which performs Thread.SetPriority call"
	lk.Unlock()
}

func good(t *threads.Thread) {
	lk.Lock()
	buf[0] = 1
	lk.Unlock()
	dep.Raise(t)
}

// allocUnderLock is nubdiscipline's finding, not this analyzer's.
func allocUnderLock() {
	lk.Lock()
	buf = dep.Grow(buf)
	lk.Unlock()
}
