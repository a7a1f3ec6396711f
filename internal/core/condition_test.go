package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWaitSignalBasic(t *testing.T) {
	var (
		m     Mutex
		c     Condition
		ready bool
	)
	done := make(chan struct{})
	Fork(func() {
		defer close(done)
		m.Acquire()
		for !ready {
			c.Wait(&m)
		}
		m.Release()
	})
	time.Sleep(20 * time.Millisecond)
	m.Acquire()
	ready = true
	m.Release()
	c.Signal()
	waitDone(t, done, "waiter after Signal")
}

func TestWaitReleasesMutex(t *testing.T) {
	// The Enqueue action sets m' = NIL: while the waiter is blocked the
	// mutex must be acquirable by others.
	var (
		m Mutex
		c Condition
	)
	waiting := make(chan struct{})
	done := make(chan struct{})
	Fork(func() {
		defer close(done)
		m.Acquire()
		close(waiting)
		c.Wait(&m)
		m.Release()
	})
	waitDone(t, waiting, "waiter to enter critical section")
	acquired := make(chan struct{})
	Fork(func() {
		m.Acquire()
		close(acquired)
		m.Release()
		c.Signal()
	})
	waitDone(t, acquired, "mutex to be released by Wait's Enqueue")
	waitDone(t, done, "waiter to resume")
}

func TestWaitReacquiresMutex(t *testing.T) {
	// The Resume action sets m' = SELF: on return from Wait the thread is
	// in a new critical section.
	var (
		m Mutex
		c Condition
	)
	done := make(chan struct{})
	Fork(func() {
		defer close(done)
		m.Acquire()
		c.Wait(&m)
		if !m.Held() {
			t.Error("mutex not held on return from Wait")
		}
		m.Release()
	})
	time.Sleep(20 * time.Millisecond)
	for c.Waiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	c.Signal()
	waitDone(t, done, "waiter to return from Wait")
}

func TestSignalWithNoWaitersIsNoop(t *testing.T) {
	defer EnableStats(EnableStats(true))
	ResetStats()
	var c Condition
	for i := 0; i < 50; i++ {
		c.Signal()
		c.Broadcast()
	}
	s := SnapshotStats()
	if s.SignalFast != 50 || s.SignalNub != 0 {
		t.Fatalf("Signal with no waiters: fast=%d nub=%d", s.SignalFast, s.SignalNub)
	}
	if s.BcastFast != 50 || s.BcastNub != 0 {
		t.Fatalf("Broadcast with no waiters: fast=%d nub=%d", s.BcastFast, s.BcastNub)
	}
}

func TestBroadcastWakesAll(t *testing.T) {
	const waiters = 10
	var (
		m    Mutex
		c    Condition
		gate bool
		wg   sync.WaitGroup
	)
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		Fork(func() {
			defer wg.Done()
			m.Acquire()
			for !gate {
				c.Wait(&m)
			}
			m.Release()
		})
	}
	// Wait for all to block.
	deadline := time.Now().Add(5 * time.Second)
	for c.Waiters() < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters blocked", c.Waiters(), waiters)
		}
		time.Sleep(time.Millisecond)
	}
	m.Acquire()
	gate = true
	m.Release()
	c.Broadcast()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitDone(t, done, "all broadcast waiters")
}

// TestSignalWakesOneQueuedWaiter: with all waiters fully blocked (not
// racing), one Signal admits exactly one.
func TestSignalWakesOneQueuedWaiter(t *testing.T) {
	const waiters = 6
	var (
		m      Mutex
		c      Condition
		tokens int
		woken  int32
		wg     sync.WaitGroup
	)
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		Fork(func() {
			defer wg.Done()
			m.Acquire()
			for tokens == 0 {
				c.Wait(&m)
			}
			tokens--
			atomic.AddInt32(&woken, 1)
			m.Release()
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Waiters() < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters blocked", c.Waiters(), waiters)
		}
		time.Sleep(time.Millisecond)
	}
	// One token, one Signal: exactly one thread should get through.
	m.Acquire()
	tokens = 1
	m.Release()
	c.Signal()
	time.Sleep(100 * time.Millisecond)
	if n := atomic.LoadInt32(&woken); n != 1 {
		t.Fatalf("%d threads consumed tokens after one Signal with one token", n)
	}
	// Drain the rest.
	m.Acquire()
	tokens = waiters - 1
	m.Release()
	c.Broadcast()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitDone(t, done, "remaining waiters")
}

// TestProducerConsumer runs the canonical bounded-buffer monitor and checks
// that every item is delivered exactly once in order per producer.
func TestProducerConsumer(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 2000
		capacity  = 8
	)
	var (
		m        Mutex
		nonEmpty Condition
		nonFull  Condition
		buf      []int
		got      = make(map[int]int)
		gotMu    sync.Mutex
		wg       sync.WaitGroup
	)
	produced := 0
	wg.Add(producers + consumers)
	for p := 0; p < producers; p++ {
		p := p
		Fork(func() {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				item := p*perProd + i
				m.Acquire()
				for len(buf) == capacity {
					nonFull.Wait(&m)
				}
				buf = append(buf, item)
				produced++
				m.Release()
				nonEmpty.Signal()
			}
		})
	}
	total := producers * perProd
	var consumed int32
	for cn := 0; cn < consumers; cn++ {
		Fork(func() {
			defer wg.Done()
			for {
				m.Acquire()
				for len(buf) == 0 {
					if int(atomic.LoadInt32(&consumed)) == total {
						m.Release()
						return
					}
					nonEmpty.Wait(&m)
				}
				item := buf[0]
				buf = buf[1:]
				n := atomic.AddInt32(&consumed, 1)
				m.Release()
				nonFull.Signal()
				gotMu.Lock()
				got[item]++
				gotMu.Unlock()
				if int(n) == total {
					// Wake peers blocked on nonEmpty so they can exit.
					nonEmpty.Broadcast()
					return
				}
			}
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitDone(t, done, "producer-consumer completion")
	if len(got) != total {
		t.Fatalf("delivered %d distinct items, want %d", len(got), total)
	}
	for item, n := range got {
		if n != 1 {
			t.Fatalf("item %d delivered %d times", item, n)
		}
	}
}

// TestNoLostWakeup hammers the Enqueue window: a signaller that changes the
// predicate under the mutex and signals after releasing must never leave
// the waiter blocked forever. This is the wakeup-waiting race (E4); the
// eventcount in block() is what closes it.
func TestNoLostWakeup(t *testing.T) {
	for round := 0; round < 300; round++ {
		var (
			m     Mutex
			c     Condition
			ready bool
		)
		done := make(chan struct{})
		Fork(func() {
			defer close(done)
			m.Acquire()
			for !ready {
				c.Wait(&m)
			}
			m.Release()
		})
		Fork(func() {
			m.Acquire()
			ready = true
			m.Release()
			c.Signal()
		})
		waitDone(t, done, "waiter (possible lost wakeup)")
	}
}

// TestWaitIsAHint: a third thread may invalidate the predicate between
// Signal and the waiter's Resume, so the waiter must loop. This test
// verifies the program pattern works (and exercises the hint semantics); it
// cannot assert a spurious resume occurs, only that correctness survives.
func TestWaitIsAHint(t *testing.T) {
	var (
		m     Mutex
		c     Condition
		avail int
		taken int32
	)
	const items = 500
	var wg sync.WaitGroup
	// Two greedy consumers and one "thief" racing for each item.
	wg.Add(2)
	for k := 0; k < 2; k++ {
		Fork(func() {
			defer wg.Done()
			for int(atomic.LoadInt32(&taken)) < items {
				m.Acquire()
				for avail == 0 && int(atomic.LoadInt32(&taken)) < items {
					c.Wait(&m)
				}
				if avail > 0 {
					avail--
					atomic.AddInt32(&taken, 1)
				}
				m.Release()
			}
		})
	}
	for i := 0; i < items; i++ {
		m.Acquire()
		avail++
		m.Release()
		c.Signal()
		if i%7 == 0 {
			// Occasionally steal it back immediately, so waiters resume
			// to a false predicate and must Wait again.
			m.Acquire()
			if avail > 0 {
				avail--
				atomic.AddInt32(&taken, 1)
			}
			m.Release()
		}
	}
	// Flush any final waiters.
	for int(atomic.LoadInt32(&taken)) < items {
		c.Broadcast()
		time.Sleep(time.Millisecond)
	}
	c.Broadcast()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitDone(t, done, "hint-semantics consumers")
}

func TestWaitersAdvisoryCount(t *testing.T) {
	var (
		m Mutex
		c Condition
	)
	if c.Waiters() != 0 {
		t.Fatal("fresh condition reports waiters")
	}
	done := make(chan struct{})
	Fork(func() {
		defer close(done)
		m.Acquire()
		c.Wait(&m)
		m.Release()
	})
	deadline := time.Now().Add(5 * time.Second)
	for c.Waiters() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("Waiters = %d, want 1", c.Waiters())
		}
		time.Sleep(time.Millisecond)
	}
	c.Signal()
	waitDone(t, done, "single waiter")
}

// wantCommitted fails the test unless c counts exactly n committed,
// un-popped waiters.
func wantCommitted(t *testing.T, c *Condition, n int32, when string) {
	t.Helper()
	if got := c.committed.Load(); got != n {
		t.Fatalf("committed = %d %s, want %d", got, when, n)
	}
}

// forkWaiter forks a thread that waits on c until *ready holds (read under
// m).
func forkWaiter(m *Mutex, c *Condition, ready *bool) *Thread {
	return Fork(func() {
		m.Acquire()
		for !*ready {
			c.Wait(m)
		}
		m.Release()
	})
}

// signalInWindow runs Wait's commit and eventcount read on the calling
// goroutine, issues a Signal in the window before Block (the
// wakeup-waiting race of E4), then blocks: the wait must end without
// queueing, by the spin when it can run and by the Nub's re-check when it
// cannot.
func signalInWindow(c *Condition) {
	c.committed.Add(1)
	i := c.ec.Read()
	c.Signal()
	c.block(i, nil, new(gate))
}

// TestConditionCommitmentAccounting ends a wait by every exit Block has —
// woken, morphed, broadcast, elided, spin win, alerted before and after
// queueing, alerted while a Signal re-pops past it, deadline expiry — and
// checks that c.committed counts each waiter until it is queued and
// popped, returns to exactly 0, and is never seen negative. A leaked
// commitment is still correct, only slow (every later Signal enters the
// Nub), so no behavioural test would notice one; a double drop would let a
// Signal skip a queued waiter.
func TestConditionCommitmentAccounting(t *testing.T) {
	const n = 3
	cases := []struct {
		name string
		mode HandoffMode
		// singleP runs on one processor: the spin is off, and a woken
		// thread cannot run until the test goroutine blocks.
		singleP, needSpin bool
		run               func(t *testing.T, m *Mutex, c *Condition)
		exited            func(Stats) bool // the stats show the wait took the exit under test
	}{
		{name: "signal-wake", mode: HandoffOff, run: func(t *testing.T, m *Mutex, c *Condition) {
			var ready bool
			th := forkWaiter(m, c, &ready)
			waitForWaiters(t, c.Waiters, 1)
			wantCommitted(t, c, 1, "with one waiter queued")
			m.Acquire()
			ready = true
			m.Release()
			c.Signal()
			wantCommitted(t, c, 0, "after Signal popped the waiter")
			Join(th)
		}, exited: func(s Stats) bool { return s.SignalWoke == 1 }},
		{name: "signal-morph", mode: HandoffAdaptive, run: func(t *testing.T, m *Mutex, c *Condition) {
			var ready bool
			th := forkWaiter(m, c, &ready)
			waitForWaiters(t, c.Waiters, 1)
			m.Acquire()
			ready = true
			c.Signal()
			wantCommitted(t, c, 0, "after Signal morphed the waiter onto the held mutex")
			m.Release()
			Join(th)
		}, exited: func(s Stats) bool { return s.SignalMorph == 1 }},
		{name: "broadcast", mode: HandoffOff, run: func(t *testing.T, m *Mutex, c *Condition) {
			var ready bool
			var ths []*Thread
			for j := 0; j < n; j++ {
				ths = append(ths, forkWaiter(m, c, &ready))
			}
			waitForWaiters(t, c.Waiters, n)
			wantCommitted(t, c, n, "with every waiter queued")
			m.Acquire()
			ready = true
			m.Release()
			c.Broadcast()
			wantCommitted(t, c, 0, "after Broadcast drained the queue")
			for _, th := range ths {
				Join(th)
			}
		}, exited: func(s Stats) bool { return s.BcastWoke == n }},
		{name: "elided", singleP: true, run: func(t *testing.T, m *Mutex, c *Condition) {
			signalInWindow(c)
		}, exited: func(s Stats) bool { return s.WaitElided == 1 }},
		{name: "spin-win", needSpin: true, run: func(t *testing.T, m *Mutex, c *Condition) {
			signalInWindow(c)
		}, exited: func(s Stats) bool { return s.WaitSpin == 1 }},
		{name: "alert-before-queueing", run: func(t *testing.T, m *Mutex, c *Condition) {
			var err error
			Join(Fork(func() {
				Alert(Self())
				m.Acquire()
				err = c.AlertWait(m)
				m.Release()
			}))
			if err != Alerted {
				t.Fatalf("AlertWait with an alert pending returned %v, want Alerted", err)
			}
		}, exited: func(s Stats) bool { return s.AlertedWait == 1 && s.WaitPark == 0 }},
		{name: "alert-after-queueing", run: func(t *testing.T, m *Mutex, c *Condition) {
			var err error
			th := Fork(func() {
				m.Acquire()
				err = c.AlertWait(m)
				m.Release()
			})
			waitForWaiters(t, c.Waiters, 1)
			wantCommitted(t, c, 1, "with the alertable waiter queued")
			Alert(th)
			Join(th)
			if err != Alerted {
				t.Fatalf("alerted AlertWait returned %v, want Alerted", err)
			}
		}, exited: func(s Stats) bool { return s.AlertedWait == 1 && s.WaitPark == 1 }},
		{name: "alert-signal-repop", mode: HandoffOff, singleP: true, run: func(t *testing.T, m *Mutex, c *Condition) {
			// The alerted thread is queued first. On one processor it
			// cannot run between Alert's claim and the Signal, so the
			// Signal pops it, loses the claim, and re-pops the second
			// waiter; the alerted thread's own Remove then finds
			// nothing to remove and must not drop its commitment again.
			var err error
			alerted := Fork(func() {
				m.Acquire()
				err = c.AlertWait(m)
				m.Release()
			})
			waitForWaiters(t, c.Waiters, 1)
			var ready bool
			th := forkWaiter(m, c, &ready)
			waitForWaiters(t, c.Waiters, 2)
			m.Acquire()
			ready = true
			m.Release()
			Alert(alerted)
			c.Signal()
			wantCommitted(t, c, 0, "after Signal popped both waiters")
			Join(alerted)
			Join(th)
			if err != Alerted {
				t.Fatalf("alerted AlertWait returned %v, want Alerted", err)
			}
		}, exited: func(s Stats) bool { return s.SignalRepop == 1 && s.SignalWoke == 1 }},
		{name: "deadline-expiry", run: func(t *testing.T, m *Mutex, c *Condition) {
			var err error
			Join(Fork(func() {
				m.Acquire()
				err = c.AlertWaitDeadline(m, time.Now().Add(10*time.Millisecond))
				m.Release()
			}))
			if err != DeadlineExceeded {
				t.Fatalf("AlertWaitDeadline returned %v, want DeadlineExceeded", err)
			}
		}, exited: func(s Stats) bool { return s.AlertedWait == 1 }},
	}
	for _, x := range cases {
		t.Run(x.name, func(t *testing.T) {
			if x.needSpin && !canSpin() {
				t.Skip("adaptive spinning is off on a single processor")
			}
			if x.singleP {
				prev := runtime.GOMAXPROCS(1)
				t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			}
			withHandoffMode(t, x.mode)
			var (
				m     Mutex
				c     Condition
				least atomic.Int32
			)
			stop := make(chan struct{})
			var watcher sync.WaitGroup
			watcher.Add(1)
			go func() {
				defer watcher.Done()
				for {
					if v := c.committed.Load(); v < least.Load() {
						least.Store(v)
					}
					select {
					case <-stop:
						return
					default:
						runtime.Gosched()
					}
				}
			}()
			s := statsDelta(t, func() { x.run(t, &m, &c) })
			close(stop)
			watcher.Wait()
			wantCommitted(t, &c, 0, "after the wait ended")
			if v := least.Load(); v < 0 {
				t.Fatalf("committed went negative (%d) during the wait", v)
			}
			if !x.exited(s) {
				t.Fatalf("the wait did not take the %s exit: stats %+v", x.name, s)
			}
		})
	}
}

// TestSignalAfterPopTakesFastPath pins the short-circuit the commitment
// accounting buys: once a Signal has popped the only waiter, later Signals
// find nobody committed and stay in user code, whether the popped waiter
// was morphed onto the held mutex or woken to contend for it. The test
// holds the mutex throughout, so the popped waiter cannot re-commit, and
// the counts are exact on any machine.
func TestSignalAfterPopTakesFastPath(t *testing.T) {
	const k = 5
	for _, x := range []struct {
		name        string
		mode        HandoffMode
		morph, woke uint64
	}{{"HandoffAdaptive", HandoffAdaptive, 1, 0}, {"HandoffOff", HandoffOff, 0, 1}} {
		t.Run(x.name, func(t *testing.T) {
			withHandoffMode(t, x.mode)
			var (
				m     Mutex
				c     Condition
				ready bool
			)
			th := forkWaiter(&m, &c, &ready)
			waitForWaiters(t, c.Waiters, 1)
			s := statsDelta(t, func() {
				m.Acquire()
				ready = true
				for j := 0; j <= k; j++ {
					c.Signal()
				}
				m.Release()
				Join(th)
			})
			if s.SignalNub != 1 || s.SignalFast != k {
				t.Fatalf("%d Signals: nub=%d fast=%d, want nub=1 fast=%d", k+1, s.SignalNub, s.SignalFast, k)
			}
			if s.SignalMorph != x.morph || s.SignalWoke != x.woke {
				t.Fatalf("popped waiter: morph=%d woke=%d, want morph=%d woke=%d", s.SignalMorph, s.SignalWoke, x.morph, x.woke)
			}
		})
	}
}
