package core

import (
	"sort"
	"sync"
	"testing"
)

// The stamping-scheme tests replay collected TraceRecords through a minimal
// in-package checker (internal/trace imports this package, so these tests
// cannot; the full-spec replay lives in internal/trace's conformance
// tests). The property checked is the one the CAS-embedded stamp exists
// for: sorted by stamp, per-object transitions alternate legally — no
// Acquire of a held mutex, no Release by a non-holder, no P of an
// unavailable semaphore. A stamp taken after (or before, rather than at)
// the winning CAS inverts with a concurrent transition under contention
// and fails exactly these checks.

// replayGateTrace validates mutex/semaphore transitions in stamp order.
func replayGateTrace(t *testing.T, shards [][]TraceRecord) (n int) {
	t.Helper()
	var recs []TraceRecord
	for _, s := range shards {
		recs = append(recs, s...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	holders := map[uint64]uint64{} // mutex obj -> tid
	taken := map[uint64]bool{}     // semaphore obj -> unavailable
	lastSeq := uint64(0)
	for _, r := range recs {
		if r.Seq <= lastSeq {
			t.Fatalf("stamp %d not strictly increasing after %d (duplicate or unsorted)", r.Seq, lastSeq)
		}
		lastSeq = r.Seq
		switch r.Kind {
		case TraceAcquire:
			if h := holders[r.Obj]; h != 0 {
				t.Fatalf("stamp %d: Acquire(t%d, m%d) while held by t%d — stamp order diverged from transition order", r.Seq, r.TID, r.Obj, h)
			}
			holders[r.Obj] = r.TID
		case TraceRelease:
			if h := holders[r.Obj]; h != r.TID {
				t.Fatalf("stamp %d: Release(t%d, m%d) but holder is t%d", r.Seq, r.TID, r.Obj, h)
			}
			holders[r.Obj] = 0
		case TraceP:
			if taken[r.Obj] {
				t.Fatalf("stamp %d: P(t%d, s%d) while unavailable — stamp order diverged from transition order", r.Seq, r.TID, r.Obj)
			}
			taken[r.Obj] = true
		case TraceV:
			taken[r.Obj] = false
		default:
			t.Fatalf("stamp %d: unexpected kind %d in a gate-only workload", r.Seq, r.Kind)
		}
		n++
	}
	return n
}

// TestTraceStampMutexOrder hammers one mutex from many goroutines with
// tracing on: the recorded Acquire/Release stream, sorted by stamp, must be
// a legal alternation. This is the direct test of the fast-path ordering
// hazard — the Acquire CAS racing the Release transition.
func TestTraceStampMutexOrder(t *testing.T) {
	const (
		goroutines = 8
		iters      = 5000
	)
	StartTracing(1 << 18)
	defer StopTracing()
	var m Mutex
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			defer Detach()
			for i := 0; i < iters; i++ {
				m.Acquire()
				m.Release()
			}
		}()
	}
	wg.Wait()
	shards, dropped := CollectTrace()
	if dropped > 0 {
		t.Fatalf("rings overflowed: %d dropped", dropped)
	}
	if n := replayGateTrace(t, shards); n != goroutines*iters*2 {
		t.Fatalf("replayed %d events, want %d", n, goroutines*iters*2)
	}
}

// TestTraceStampSemaphoreOrder is the semaphore variant: concurrent V's
// race each other and P's (V has no REQUIRES clause, so the release CAS
// loop genuinely contends), which is the overtaking scenario that breaks
// draw-stamp-before-instruction schemes.
func TestTraceStampSemaphoreOrder(t *testing.T) {
	const (
		goroutines = 8
		iters      = 5000
	)
	StartTracing(1 << 18)
	defer StopTracing()
	var s Semaphore
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			defer Detach()
			for i := 0; i < iters; i++ {
				s.P()
				s.V()
			}
		}()
	}
	wg.Wait()
	shards, dropped := CollectTrace()
	if dropped > 0 {
		t.Fatalf("rings overflowed: %d dropped", dropped)
	}
	if n := replayGateTrace(t, shards); n != goroutines*iters*2 {
		t.Fatalf("replayed %d events, want %d", n, goroutines*iters*2)
	}
}

// TestTraceRingOverflowIsReported pins CollectTrace's drop accounting: a
// ring smaller than the burst must report exactly the excess as dropped —
// overflow may never pass silently into a conformance verdict.
func TestTraceRingOverflowIsReported(t *testing.T) {
	StartTracing(8) // tiny rings
	defer StopTracing()
	var m Mutex
	const ops = 1000
	for i := 0; i < ops; i++ {
		m.Acquire()
		m.Release()
	}
	shards, dropped := CollectTrace()
	var kept uint64
	for _, s := range shards {
		kept += uint64(len(s))
	}
	if kept+dropped != 2*ops {
		t.Fatalf("kept %d + dropped %d != %d written", kept, dropped, 2*ops)
	}
	if dropped == 0 {
		t.Fatalf("expected overflow with 8-record rings and %d events", 2*ops)
	}
}

// TestTraceCollectResetsPositions pins episodic collection: a second
// collect after more traffic returns only the new records.
func TestTraceCollectResetsPositions(t *testing.T) {
	StartTracing(1 << 10)
	defer StopTracing()
	var m Mutex
	m.Acquire()
	m.Release()
	_, dropped := CollectTrace()
	if dropped > 0 {
		t.Fatal("unexpected drop")
	}
	m.Acquire()
	m.Release()
	shards, _ := CollectTrace()
	var n int
	for _, s := range shards {
		n += len(s)
	}
	if n != 2 {
		t.Fatalf("second episode collected %d records, want 2", n)
	}
}

// Benchmarks measuring the cost of conformance tracing, quoted in
// EXPERIMENTS.md E9: the disabled case is the tax every build pays for
// having the instrumentation compiled in (one atomic-bool load per
// operation); the enabled case adds the stamp fetch-add and the ring
// store.

// Ring allocation in StartTracing and the drain in CollectTrace stay
// outside the timed region: the traced benchmarks price the per-event cost.
func benchMutexPair(b *testing.B, traced bool) {
	if traced {
		StartTracing(1 << 20)
		defer StopTracing()
		defer CollectTrace() // keep the rings from carrying into other tests
	}
	var m Mutex
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		defer Detach()
		for pb.Next() {
			m.Acquire()
			m.Release()
		}
	})
	b.StopTimer()
	if traced {
		if _, dropped := CollectTrace(); dropped > 0 {
			b.Logf("note: %d records dropped (ring wrap during benchmark)", dropped)
		}
	}
}

func BenchmarkMutexPairTracingOff(b *testing.B) { benchMutexPair(b, false) }
func BenchmarkMutexPairTracingOn(b *testing.B)  { benchMutexPair(b, true) }

// The serial pair isolates the per-operation instrumentation cost from the
// contention the shared stamp counter adds under parallel load.
func benchMutexPairSerial(b *testing.B, traced bool) {
	if traced {
		StartTracing(1 << 20)
		defer StopTracing()
		defer CollectTrace()
	}
	var m Mutex
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Acquire()
		m.Release()
	}
	b.StopTimer()
}

func BenchmarkMutexPairSerialTracingOff(b *testing.B) { benchMutexPairSerial(b, false) }
func BenchmarkMutexPairSerialTracingOn(b *testing.B)  { benchMutexPairSerial(b, true) }

// TestDisabledFastPathClearsStaleStamps pins the regime change: after a
// traced period leaves stamp bits in a gate word, the untraced fast path
// must still acquire (via its fallback CAS) and return the word to the
// plain 0/1 regime rather than spinning or blocking forever.
func TestDisabledFastPathClearsStaleStamps(t *testing.T) {
	StartTracing(1 << 10)
	var m Mutex
	var s Semaphore
	m.Acquire()
	m.Release() // word now holds a stamp with the lock bit clear
	s.P()
	s.V()
	StopTracing()
	CollectTrace()
	if !m.TryAcquire() {
		t.Fatal("TryAcquire failed on a free mutex carrying stale stamp bits")
	}
	m.Release()
	if !m.g.word.CompareAndSwap(0, 0) && m.g.word.Load() != 0 {
		t.Fatalf("untraced release left word %#x, want 0", m.g.word.Load())
	}
	if !s.TryP() {
		t.Fatal("TryP failed on an available semaphore carrying stale stamp bits")
	}
	s.V()
}
