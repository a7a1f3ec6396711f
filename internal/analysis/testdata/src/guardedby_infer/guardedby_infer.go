// Fixture for the guardedby analyzer's inference mode: unannotated fields
// whose writes dominantly hold one sibling lock. A strong majority with a
// deviation is a likely missing guard; full consistency becomes an
// advisory annotation suggestion.
package guardedbyinferfix

import "threads"

// tally: 4 of 5 writes hold mu, so the fifth is flagged.
type tally struct {
	mu threads.Mutex
	c  int
}

func (t *tally) add() {
	t.mu.Acquire()
	t.c++
	t.mu.Release()
}

func (t *tally) sub() {
	t.mu.Acquire()
	t.c--
	t.mu.Release()
}

func (t *tally) reset() {
	t.mu.Acquire()
	t.c = 0
	t.mu.Release()
}

func (t *tally) double() {
	t.mu.Acquire()
	t.c *= 2
	t.mu.Release()
}

func (t *tally) rogue() {
	t.c = 9 // want "write of t.c without mu held, but 4 of 5 writes hold it"
}

// clean: every write holds mu, so the field earns a suggestion.
type clean struct {
	mu threads.Mutex
	v  int // want "suggestion: all 2 writes of clean.v hold mu"
}

func (c *clean) set(x int) {
	c.mu.Acquire()
	c.v = x
	c.mu.Release()
}

func (c *clean) clear() {
	c.mu.Acquire()
	c.v = 0
	c.mu.Release()
}

// loner has a single unguarded write: too little evidence either way.
type loner struct {
	mu threads.Mutex
	w  int
}

func (l *loner) poke() {
	l.w++
}
