package core

import "time"

// clockEpoch anchors the package's one clock. Time.Sub reads the monotonic
// clock when both times carry a reading (every time.Now-derived one does),
// so nanotime never jumps with wall-clock adjustments and orders a
// deadline against the present exactly as time.Now().Before(deadline).
var clockEpoch = time.Now()

// nanotime returns monotonic nanoseconds since clockEpoch: the waiters'
// parkStart (the hand-off starvation threshold) and the timer wheel's keys.
func nanotime() int64 { return int64(time.Since(clockEpoch)) }

// nanotimeAt converts t to nanotime's scale.
func nanotimeAt(t time.Time) int64 { return int64(t.Sub(clockEpoch)) }
