package core

import (
	"testing"
	"unsafe"

	"threads/internal/spinlock"
)

// TestPaddedLayouts pins the cache-line padding of the spin-locked shards,
// and that a Mutex is nothing but its gate.
// Their padding is derived from the lock's size, so a change to
// spinlock.Lock must leave each shard exactly one line long; a shard that
// drifts below a line shares it with its neighbour (false sharing), one
// that drifts above wastes a line per shard.
func TestPaddedLayouts(t *testing.T) {
	if got := unsafe.Sizeof(spinlock.Lock{}); got != 16 {
		t.Errorf("unsafe.Sizeof(spinlock.Lock{}) = %d, want 16 (bit + contention counter)", got)
	}
	if got := unsafe.Sizeof(registryShard{}); got != cacheLineSize {
		t.Errorf("unsafe.Sizeof(registryShard{}) = %d, want %d", got, cacheLineSize)
	}
	if got := unsafe.Sizeof(wheelBucket{}); got != cacheLineSize {
		t.Errorf("unsafe.Sizeof(wheelBucket{}) = %d, want %d", got, cacheLineSize)
	}
	// A Mutex is a gate: its one holder record lives in the gate, so no
	// second record can creep back in beside it.
	if m, s := unsafe.Sizeof(Mutex{}), unsafe.Sizeof(Semaphore{}); m != s {
		t.Errorf("unsafe.Sizeof(Mutex{}) = %d, want %d, the size of a Semaphore (a Mutex is a gate)", m, s)
	}
}
