package core

import (
	"fmt"
	"runtime"
	"testing"
)

// The holder record is installed by one entry epilogue on every path that
// completes a Mutex acquisition — including a Release that hands the mutex
// to a waiter parked in Acquire or morphed there by Signal — and cleared
// by one release prologue. These tests drive checking mode, alone and with
// priority inheritance, through the Wait/AlertWait reacquisitions and the
// hand-off paths, where any slip in the record turns into a REQUIRES panic.

// runHolderProducerConsumer passes items through a small bounded buffer
// guarded by one mutex, with checking mode on, and returns how many were
// consumed. A REQUIRES or recursive-Acquire check that fires panics in its
// thread and fails the test binary with the violation. Threads run at
// mixed priorities so a PI mutex has donations to make and remove.
// Producers yield inside the critical section so that, on a single
// processor too, consumers arrive at a held mutex and the hand-off paths
// run.
func runHolderProducerConsumer(pi, alertable bool, producers, consumers, perProducer int) int {
	prevCheck := SetChecking(true)
	defer SetChecking(prevCheck)
	var (
		m                 Mutex
		nonEmpty, nonFull Condition
		buf               []int
		done              int
	)
	const capacity = 2
	m.SetPriorityInheritance(pi)
	wait := func(c *Condition) {
		if !alertable {
			c.Wait(&m)
			return
		}
		// No thread is alerted, so AlertWait returns nil; the error is
		// checked all the same.
		if err := c.AlertWait(&m); err != nil {
			panic(err)
		}
	}
	total := producers * perProducer
	var ths []*Thread
	for p := 0; p < producers; p++ {
		ths = append(ths, ForkPri(p%3, func() {
			for i := 0; i < perProducer; i++ {
				m.Acquire()
				for len(buf) == capacity {
					wait(&nonFull)
				}
				buf = append(buf, i)
				yieldHeld(i)
				m.Release()
				nonEmpty.Signal()
			}
		}))
	}
	for c := 0; c < consumers; c++ {
		ths = append(ths, ForkPri(2-c%3, func() {
			for {
				m.Acquire()
				for len(buf) == 0 && done < total {
					wait(&nonEmpty)
				}
				if done == total {
					m.Release()
					nonEmpty.Broadcast()
					return
				}
				buf = buf[1:]
				done++
				m.Release()
				nonFull.Signal()
			}
		}))
	}
	for _, th := range ths {
		Join(th)
	}
	m.SetPriorityInheritance(false)
	return done
}

// TestCheckingModeWaitHandoff runs checking mode, alone and with priority
// inheritance, over producer-consumer Wait/Signal and AlertWait under both
// HandoffAlways and HandoffOff. Every release and reacquisition checks the
// holder record, so a path that failed to install the hand-off recipient
// (or left a stale holder behind) panics with a REQUIRES violation.
func TestCheckingModeWaitHandoff(t *testing.T) {
	for name, mode := range map[string]HandoffMode{"HandoffAlways": HandoffAlways, "HandoffOff": HandoffOff} {
		for _, alertable := range []bool{false, true} {
			for _, pi := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/alertable=%v/pi=%v", name, alertable, pi), func(t *testing.T) {
					withHandoffMode(t, mode)
					var consumed int
					s := statsDelta(t, func() {
						consumed = runHolderProducerConsumer(pi, alertable, 2, 2, 400)
					})
					if consumed != 800 {
						t.Fatalf("consumed %d items, want 800", consumed)
					}
					if mode == HandoffAlways && s.ReleaseHandoff == 0 {
						t.Fatalf("no hand-offs under HandoffAlways (parks=%d): the transfer path never ran", s.AcquirePark)
					}
					if mode == HandoffOff && s.ReleaseHandoff != 0 {
						t.Fatalf("%d hand-offs under HandoffOff", s.ReleaseHandoff)
					}
				})
			}
		}
	}
}

// TestCheckingModeBadReleaseAfterHandoff hands a checked mutex to a waiter
// — one parked in Acquire, and one that Signal morphed onto the mutex
// queue from Wait — and then has the former holder Release again. The
// transfer made the waiter the holder, so the second Release must still
// panic, and must leave the record intact for the real holder's Release.
func TestCheckingModeBadReleaseAfterHandoff(t *testing.T) {
	for _, viaWait := range []bool{false, true} {
		name := "Acquire"
		if viaWait {
			name = "Wait"
		}
		t.Run(name, func(t *testing.T) {
			defer SetChecking(SetChecking(true))
			withHandoffMode(t, HandoffAlways)
			var (
				m     Mutex
				c     Condition
				ready bool
			)
			holding := make(chan struct{})
			releaseIt := make(chan struct{})
			errs := make(chan interface{}, 1)
			m.Acquire()
			waiter := Fork(func() {
				defer func() { errs <- recover() }()
				if viaWait {
					m.Acquire()
					for !ready {
						c.Wait(&m)
					}
				} else {
					m.Acquire()
				}
				close(holding)
				<-releaseIt
				m.Release()
			})
			if viaWait {
				// Let the waiter take the mutex and block in Wait, then
				// retake it and Signal while holding it, so the waiter is
				// morphed onto the mutex queue behind this thread.
				m.Release()
				for c.Waiters() == 0 {
					runtime.Gosched()
				}
				m.Acquire()
				ready = true
				c.Signal()
			}
			for m.Waiters() == 0 {
				runtime.Gosched()
			}
			s := statsDelta(t, func() {
				m.Release() // hands the mutex to the waiter
				waitDone(t, holding, "the hand-off recipient")
			})
			if s.ReleaseHandoff != 1 {
				t.Fatalf("ReleaseHandoff = %d, want 1: the release did not hand off", s.ReleaseHandoff)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Release by the former holder after a hand-off did not panic")
					}
				}()
				m.Release()
			}()
			close(releaseIt)
			Join(waiter)
			if r := <-errs; r != nil {
				t.Fatalf("the hand-off recipient's own Release panicked: %v", r)
			}
			if m.Held() {
				t.Fatal("mutex still held after the recipient released it")
			}
		})
	}
}
