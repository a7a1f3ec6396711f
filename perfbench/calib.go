package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"threads/internal/core"
	"threads/internal/queue"
	"threads/internal/spinlock"
)

// The calibration ledger: each layer's public function timed in isolation
// on a Forked thread. A unit is timed as calibSamples batches; each batch
// runs the operation a fixed number of times with all set-up done before
// its clock starts, and yields one ns/op sample. The median prices the
// ledger; the quartiles show how far to trust it.

const calibSamples = 21

type calibStat struct{ med, q1, q3 float64 }

// calibUnits lists the units in report order, with their batch sizes.
var calibUnits = []struct {
	name  string
	batch int
}{
	{"gate.pair_ns", 20000},
	{"spinlock.pair_ns", 20000},
	{"queue.push_pop_ns", 20000},
	{"queue.push_pop8_ns", 20000},
	{"self.ns", 2000},
	{"park.roundtrip_ns", 2000},
	{"deadline.pair_ns", 2000},
}

// timeBatches returns the median and quartiles of calibSamples timings of
// body(batch), in ns per operation.
func timeBatches(batch int, body func(n int)) calibStat {
	body(batch) // warm caches and lazy state outside the samples
	xs := make([]float64, calibSamples)
	for i := range xs {
		t0 := time.Now()
		body(batch)
		xs[i] = float64(time.Since(t0).Nanoseconds()) / float64(batch)
	}
	return statOf(xs)
}

func statOf(xs []float64) calibStat {
	med, q1, q3 := medianQuartiles(xs)
	return calibStat{med, q1, q3}
}

// onThread runs f on a new Forked thread and returns its result.
func onThread(f func() calibStat) calibStat {
	var s calibStat
	core.Join(core.Fork(func() { s = f() }))
	return s
}

// calibrate times every unit on Forked threads and checks the P counter
// invariant on the semaphore ping-pong with statistics on.
func calibrate() (map[string]calibStat, error) {
	out := map[string]calibStat{}
	for _, u := range calibUnits {
		s, err := calibUnit(u.name, u.batch)
		if err != nil {
			return nil, err
		}
		out[u.name] = s
	}
	return out, checkPCounters()
}

func calibUnit(name string, batch int) (calibStat, error) {
	switch name {
	case "gate.pair_ns":
		var m core.Mutex
		return onThread(func() calibStat {
			return timeBatches(batch, func(n int) {
				for i := 0; i < n; i++ {
					m.Acquire()
					m.Release()
				}
			})
		}), nil
	case "spinlock.pair_ns":
		var l spinlock.Lock
		return onThread(func() calibStat {
			return timeBatches(batch, func(n int) {
				for i := 0; i < n; i++ {
					l.Lock()
					l.Unlock()
				}
			})
		}), nil
	case "queue.push_pop_ns", "queue.push_pop8_ns":
		depth := 1
		if name == "queue.push_pop8_ns" {
			depth = 8
		}
		q := queue.NewPriorityQueue[int]()
		for i := 1; i < depth; i++ {
			q.Push(queue.NewPItem(i, 0))
		}
		cur := queue.NewPItem(0, 0)
		return onThread(func() calibStat {
			return timeBatches(batch, func(n int) {
				for i := 0; i < n; i++ {
					q.Push(cur)
					cur = q.Pop()
				}
			})
		}), nil
	case "self.ns":
		// Self's cost grows with the caller's stack depth (it parses a
		// runtime.Stack header, and the traceback walks every frame), so
		// it is timed at a thread body's own depth, as the workloads call
		// it, rather than through timeBatches' extra frames.
		return onThread(func() calibStat {
			xs := make([]float64, calibSamples+1)
			for i := range xs {
				t0 := time.Now()
				for j := 0; j < batch; j++ {
					core.Self()
				}
				xs[i] = float64(time.Since(t0).Nanoseconds()) / float64(batch)
			}
			return statOf(xs[1:]) // the first batch warms up
		}), nil
	case "park.roundtrip_ns":
		return onThread(func() calibStat {
			var s calibStat
			pingPong(func(roundTrips func(int)) { s = timeBatches(batch, roundTrips) })
			return s
		}), nil
	case "deadline.pair_ns":
		// Timed at thread-body depth, like self.ns: the pair calls Self.
		var m core.Mutex
		dl := time.Now().Add(time.Hour)
		var failed int
		st := onThread(func() calibStat {
			xs := make([]float64, calibSamples+1)
			for i := range xs {
				t0 := time.Now()
				for j := 0; j < batch; j++ {
					if m.AcquireDeadline(dl) != nil {
						failed++
						continue
					}
					m.Release()
				}
				xs[i] = float64(time.Since(t0).Nanoseconds()) / float64(batch)
			}
			return statOf(xs[1:])
		})
		if failed > 0 {
			return st, fmt.Errorf("calibration: %d far-deadline AcquireDeadline calls failed", failed)
		}
		return st, nil
	}
	return calibStat{}, fmt.Errorf("calibration: unknown unit %q", name)
}

// pingPong runs fn with a function that performs n Semaphore P/V round
// trips against a partner thread: the caller Vs b and Ps a, the partner
// Ps b and Vs a. The partner is forked before fn and joined after it, so
// neither appears in fn's timings.
func pingPong(fn func(roundTrips func(n int))) {
	var a, b core.Semaphore
	a.TryP()
	b.TryP()
	var stop atomic.Bool
	partner := core.Fork(func() {
		for {
			b.P()
			if stop.Load() {
				return
			}
			a.V()
		}
	})
	fn(func(n int) {
		for i := 0; i < n; i++ {
			b.V()
			a.P()
		}
	})
	stop.Store(true)
	b.V()
	core.Join(partner)
}

// checkPCounters runs ping-pong round trips with statistics on and checks
// that PFast+PSpin+PNub equals the P calls issued (two per round trip).
func checkPCounters() error {
	const n = 2000
	prev := core.EnableStats(true)
	core.ResetStats()
	onThread(func() calibStat {
		pingPong(func(roundTrips func(int)) { roundTrips(n) })
		return calibStat{}
	})
	s := core.SnapshotStats()
	core.EnableStats(prev)
	core.ResetStats()
	// Two P per round trip, plus the partner's final P (the one that sees
	// stop) and the two TryP that start both semaphores unavailable.
	issued := uint64(2*n + 1 + 2)
	if got := s.PFast + s.PSpin + s.PNub; got != issued {
		return fmt.Errorf("calibration: PFast+PSpin+PNub = %d, P calls issued = %d", got, issued)
	}
	return nil
}
