package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTestAlertConsumesPending(t *testing.T) {
	result := make(chan [3]bool, 1)
	th := Fork(func() {
		// Wait until the alert arrives.
		for !AlertPending(Self()) {
			time.Sleep(time.Millisecond)
		}
		a := TestAlert() // true, consumes
		b := TestAlert() // false, already consumed
		c := TestAlert() // still false
		result <- [3]bool{a, b, c}
	})
	Alert(th)
	Join(th)
	r := <-result
	if r != [3]bool{true, false, false} {
		t.Fatalf("TestAlert sequence = %v, want [true false false]", r)
	}
}

func TestTestAlertWithoutAlert(t *testing.T) {
	th := Fork(func() {
		if TestAlert() {
			t.Error("TestAlert true with no pending alert")
		}
	})
	Join(th)
}

func TestAlertWaitRaisesWhenBlocked(t *testing.T) {
	var (
		m Mutex
		c Condition
	)
	errCh := make(chan error, 1)
	th := Fork(func() {
		m.Acquire()
		err := c.AlertWait(&m)
		if !m.Held() {
			t.Error("mutex not held after AlertWait (m' = SELF violated)")
		}
		m.Release()
		errCh <- err
	})
	// Let it block, then alert.
	deadline := time.Now().Add(5 * time.Second)
	for c.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("thread never blocked in AlertWait")
		}
		time.Sleep(time.Millisecond)
	}
	Alert(th)
	Join(th)
	if err := <-errCh; !errors.Is(err, Alerted) {
		t.Fatalf("AlertWait returned %v, want Alerted", err)
	}
}

func TestAlertWaitPendingAlertRaisesImmediately(t *testing.T) {
	var (
		m Mutex
		c Condition
	)
	errCh := make(chan error, 1)
	th := Fork(func() {
		// Ensure the alert is pending before AlertWait is called.
		for !AlertPending(Self()) {
			time.Sleep(time.Millisecond)
		}
		m.Acquire()
		err := c.AlertWait(&m)
		m.Release()
		errCh <- err
	})
	Alert(th)
	Join(th)
	if err := <-errCh; !errors.Is(err, Alerted) {
		t.Fatalf("AlertWait with pending alert returned %v, want Alerted", err)
	}
}

func TestAlertWaitConsumesAlert(t *testing.T) {
	// alerts' = delete(alerts, SELF): after the Alerted return, the flag
	// is gone.
	var (
		m Mutex
		c Condition
	)
	th := Fork(func() {
		m.Acquire()
		if err := c.AlertWait(&m); !errors.Is(err, Alerted) {
			t.Error("expected Alerted")
		}
		m.Release()
		if TestAlert() {
			t.Error("alert flag survived the Alerted return")
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for c.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("thread never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	Alert(th)
	Join(th)
}

func TestAlertWaitNormalReturnOnSignal(t *testing.T) {
	var (
		m Mutex
		c Condition
	)
	errCh := make(chan error, 1)
	Fork(func() {
		m.Acquire()
		err := c.AlertWait(&m)
		m.Release()
		errCh <- err
	})
	deadline := time.Now().Add(5 * time.Second)
	for c.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("thread never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	c.Signal()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("AlertWait after Signal returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("AlertWait never returned after Signal")
	}
}

// TestAlertedThreadDoesNotAbsorbSignal is the operational argument for the
// corrected specification (experiment E7b, Greg Nelson's scenario): thread
// t is alerted out of AlertWait; a subsequent Signal must wake a live
// waiter, not be absorbed by the departed t.
func TestAlertedThreadDoesNotAbsorbSignal(t *testing.T) {
	for round := 0; round < 50; round++ {
		var (
			m Mutex
			c Condition
		)
		alertedErr := make(chan error, 1)
		tAlerted := Fork(func() {
			m.Acquire()
			err := c.AlertWait(&m)
			m.Release()
			alertedErr <- err
		})
		liveDone := make(chan struct{})
		Fork(func() {
			m.Acquire()
			c.Wait(&m)
			m.Release()
			close(liveDone)
		})
		// Both blocked.
		deadline := time.Now().Add(5 * time.Second)
		for c.Waiters() < 2 {
			if time.Now().After(deadline) {
				t.Fatal("waiters never blocked")
			}
			time.Sleep(time.Millisecond)
		}
		Alert(tAlerted)
		if err := <-alertedErr; !errors.Is(err, Alerted) {
			t.Fatalf("round %d: alerted thread returned %v", round, err)
		}
		// t has left AlertWait. One Signal must now wake the live waiter.
		c.Signal()
		waitDone(t, liveDone, "live waiter (signal absorbed by departed thread?)")
	}
}

// TestSignalAlertRace drives Signal and Alert concurrently against one
// AlertWait and checks that (a) every outcome is one of the two permitted
// ones and (b) nothing deadlocks. Over many rounds both outcomes should
// occur (E8's non-determinism) — but the test only *requires* validity,
// not any particular mix, since scheduling may legitimately skew it.
func TestSignalAlertRace(t *testing.T) {
	var normal, alerted int
	for round := 0; round < 200; round++ {
		var (
			m Mutex
			c Condition
		)
		errCh := make(chan error, 1)
		th := Fork(func() {
			m.Acquire()
			err := c.AlertWait(&m)
			m.Release()
			if err == nil {
				// Normal return: pending alert (if the alert lost the
				// race it is still pending) must remain for TestAlert.
				errCh <- nil
				return
			}
			errCh <- err
		})
		deadline := time.Now().Add(5 * time.Second)
		for c.Waiters() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("waiter never blocked")
			}
			time.Sleep(time.Millisecond)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); c.Signal() }()
		go func() { defer wg.Done(); Alert(th) }()
		wg.Wait()
		err := <-errCh
		switch {
		case err == nil:
			normal++
		case errors.Is(err, Alerted):
			alerted++
		default:
			t.Fatalf("unexpected error %v", err)
		}
		Join(th)
	}
	t.Logf("signal/alert race outcomes: %d normal, %d alerted", normal, alerted)
	if normal+alerted != 200 {
		t.Fatalf("accounted %d outcomes, want 200", normal+alerted)
	}
}

func TestAlertPRaisesWhenBlocked(t *testing.T) {
	var s Semaphore
	s.P() // make unavailable so AlertP blocks
	errCh := make(chan error, 1)
	th := Fork(func() {
		errCh <- s.AlertP()
	})
	deadline := time.Now().Add(5 * time.Second)
	for s.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("thread never blocked in AlertP")
		}
		time.Sleep(time.Millisecond)
	}
	Alert(th)
	Join(th)
	if err := <-errCh; !errors.Is(err, Alerted) {
		t.Fatalf("AlertP returned %v, want Alerted", err)
	}
	// UNCHANGED [s]: the semaphore must still be unavailable.
	if s.Available() {
		t.Fatal("AlertP's Alerted path changed the semaphore")
	}
	s.V()
}

func TestAlertPNormalPath(t *testing.T) {
	var s Semaphore
	th := Fork(func() {
		if err := s.AlertP(); err != nil {
			t.Errorf("AlertP on available semaphore returned %v", err)
		}
		// ENSURES s' = unavailable & UNCHANGED [alerts].
		if s.Available() {
			t.Error("semaphore still available after AlertP returned normally")
		}
		s.V()
	})
	Join(th)
}

// TestAlertPDoesNotStealV: when an alerted thread leaves the semaphore
// queue, a V must still reach a live P waiter.
func TestAlertPDoesNotStealV(t *testing.T) {
	for round := 0; round < 50; round++ {
		var s Semaphore
		s.P()
		errCh := make(chan error, 1)
		alertee := Fork(func() { errCh <- s.AlertP() })
		liveDone := make(chan struct{})
		Fork(func() {
			s.P()
			close(liveDone)
		})
		deadline := time.Now().Add(5 * time.Second)
		for s.Waiters() < 2 {
			if time.Now().After(deadline) {
				t.Fatal("waiters never blocked")
			}
			time.Sleep(time.Millisecond)
		}
		Alert(alertee)
		if err := <-errCh; !errors.Is(err, Alerted) {
			t.Fatalf("alertee returned %v", err)
		}
		s.V()
		waitDone(t, liveDone, "live P waiter (V absorbed by departed thread?)")
	}
}

// TestAlertToRunningThreadStaysPending: alerting a thread that is not in an
// alertable wait just inserts it into the alerts set.
func TestAlertToRunningThreadStaysPending(t *testing.T) {
	var hit int32
	stop := make(chan struct{})
	th := Fork(func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if TestAlert() {
				atomic.AddInt32(&hit, 1)
				close(stop)
				return
			}
		}
	})
	time.Sleep(10 * time.Millisecond)
	Alert(th)
	Join(th)
	if hit != 1 {
		t.Fatal("pending alert never observed by TestAlert")
	}
}

// TestAlertDoesNotDisturbPlainWait: plain Wait is not alertable; the thread
// stays blocked until a Signal arrives, then finds its alert pending.
func TestAlertDoesNotDisturbPlainWait(t *testing.T) {
	var (
		m Mutex
		c Condition
	)
	done := make(chan bool, 1)
	th := Fork(func() {
		m.Acquire()
		c.Wait(&m)
		m.Release()
		done <- TestAlert()
	})
	deadline := time.Now().Add(5 * time.Second)
	for c.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("thread never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	Alert(th)
	select {
	case <-done:
		t.Fatal("Alert woke a thread blocked in plain Wait")
	case <-time.After(50 * time.Millisecond):
	}
	c.Signal()
	Join(th)
	if pending := <-done; !pending {
		t.Fatal("alert was lost while thread was in plain Wait")
	}
}

// TestAlertDeliveredOnce alternates, on one thread, a wait that only
// another thread's Alert can end with a short deadline wait that only its
// own timer can end — the deadline workload's slow client. Each Alert
// inserts SELF into alerts once, so it may end one wait: an Alert that
// raced the first wait's own consumption of the flag must not also claim
// the second wait's waiter. The duplicate shows up as a deadline wait
// returning Alerted, or as more Alerted returns than Alerts.
func TestAlertDeliveredOnce(t *testing.T) {
	var (
		m      Mutex
		c      Condition
		req    atomic.Int64 // slow → alerter: index+1 of the wait to end
		issued atomic.Int64
	)
	const rounds = 400
	done := make(chan struct{})
	slow := Fork(func() {
		defer close(done)
		alerted := 0
		for k := 1; k <= rounds; k++ {
			m.Acquire()
			req.Store(int64(k))
			err := c.AlertWait(&m)
			for err == nil {
				err = c.AlertWait(&m)
			}
			alerted++
			err = c.AlertWaitDeadline(&m, time.Now().Add(20*time.Microsecond))
			for err == nil {
				err = c.AlertWaitDeadline(&m, time.Now().Add(20*time.Microsecond))
			}
			m.Release()
			if err != DeadlineExceeded {
				t.Errorf("round %d: deadline wait returned %v, want DeadlineExceeded", k, err)
				return
			}
		}
		if TestAlert() {
			t.Error("alert pending after the last round")
		}
		if n := issued.Load(); int64(alerted) != n {
			t.Errorf("%d Alerted returns for %d Alerts", alerted, n)
		}
	})
	for served := int64(0); served < rounds; {
		select {
		case <-done:
			return
		default:
		}
		if r := req.Load(); r != served {
			served = r
			issued.Add(1)
			Alert(slow)
		} else {
			runtime.Gosched()
		}
	}
	Join(slow)
}
