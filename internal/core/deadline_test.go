package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestDeadlineExceededMatchesContext(t *testing.T) {
	if !errors.Is(DeadlineExceeded, context.DeadlineExceeded) {
		t.Fatal("DeadlineExceeded does not match context.DeadlineExceeded under errors.Is")
	}
	if errors.Is(DeadlineExceeded, Alerted) {
		t.Fatal("DeadlineExceeded must not match Alerted")
	}
}

func TestAlertWaitDeadlineTimesOut(t *testing.T) {
	var (
		m Mutex
		c Condition
	)
	errCh := make(chan error, 1)
	Fork(func() {
		m.Acquire()
		err := c.AlertWaitDeadline(&m, time.Now().Add(30*time.Millisecond))
		if !m.Held() {
			t.Error("mutex not held after AlertWaitDeadline (m' = SELF violated)")
		}
		m.Release()
		// The deadline's alert must not survive the return.
		if TestAlert() {
			t.Error("stale alert pending after DeadlineExceeded return")
		}
		errCh <- err
	})
	select {
	case err := <-errCh:
		if !errors.Is(err, DeadlineExceeded) {
			t.Fatalf("AlertWaitDeadline returned %v, want DeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("AlertWaitDeadline never timed out")
	}
}

func TestAlertWaitDeadlineSatisfied(t *testing.T) {
	var (
		m Mutex
		c Condition
	)
	errCh := make(chan error, 1)
	Fork(func() {
		m.Acquire()
		err := c.AlertWaitDeadline(&m, time.Now().Add(10*time.Second))
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
	if err := <-errCh; err != nil {
		t.Fatalf("satisfied AlertWaitDeadline returned %v, want nil", err)
	}
}

func TestAlertWaitDeadlineUserAlert(t *testing.T) {
	var (
		m Mutex
		c Condition
	)
	errCh := make(chan error, 1)
	th := Fork(func() {
		m.Acquire()
		err := c.AlertWaitDeadline(&m, time.Now().Add(10*time.Second))
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
	Alert(th)
	if err := <-errCh; !errors.Is(err, Alerted) {
		t.Fatalf("alerted AlertWaitDeadline returned %v, want Alerted", err)
	}
}

func TestAlertWaitDeadlineExpiredOnEntry(t *testing.T) {
	var (
		m Mutex
		c Condition
	)
	done := make(chan struct{})
	Fork(func() {
		defer close(done)
		m.Acquire()
		defer m.Release()
		err := c.AlertWaitDeadline(&m, time.Now().Add(-time.Second))
		if !errors.Is(err, DeadlineExceeded) {
			t.Errorf("expired-on-entry returned %v, want DeadlineExceeded", err)
		}
		if !m.Held() {
			t.Error("mutex released by expired-on-entry AlertWaitDeadline")
		}
		if TestAlert() {
			t.Error("expired-on-entry left an alert pending")
		}
	})
	waitDone(t, done, "expired-on-entry waiter")
}

func TestAlertPDeadline(t *testing.T) {
	var s Semaphore
	s.P() // unavailable: the deadline path must block and time out
	errCh := make(chan error, 1)
	Fork(func() {
		err := s.AlertPDeadline(time.Now().Add(30 * time.Millisecond))
		if TestAlert() {
			t.Error("stale alert pending after AlertPDeadline")
		}
		errCh <- err
	})
	if err := <-errCh; !errors.Is(err, DeadlineExceeded) {
		t.Fatalf("AlertPDeadline on unavailable semaphore returned %v, want DeadlineExceeded", err)
	}
	// UNCHANGED [s] on the deadline path.
	if s.Available() {
		t.Fatal("deadline path changed the semaphore")
	}
	s.V()

	// Available: acquires immediately.
	done := make(chan struct{})
	Fork(func() {
		defer close(done)
		if err := s.AlertPDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Errorf("AlertPDeadline on available semaphore returned %v", err)
		}
		if s.Available() {
			t.Error("semaphore still available after AlertPDeadline acquired")
		}
		s.V()
	})
	waitDone(t, done, "available-path AlertPDeadline")

	// Expired on entry degenerates to TryP.
	done2 := make(chan struct{})
	Fork(func() {
		defer close(done2)
		if err := s.AlertPDeadline(time.Now().Add(-time.Second)); err != nil {
			t.Errorf("expired AlertPDeadline on available semaphore returned %v", err)
		}
		if err := s.AlertPDeadline(time.Now().Add(-time.Second)); !errors.Is(err, DeadlineExceeded) {
			t.Errorf("expired AlertPDeadline on unavailable semaphore returned %v", err)
		}
		s.V()
	})
	waitDone(t, done2, "expired-path AlertPDeadline")
}

func TestAcquireDeadline(t *testing.T) {
	var m Mutex
	m.Acquire() // held: the deadline path must block and time out
	errCh := make(chan error, 1)
	Fork(func() {
		err := m.AcquireDeadline(time.Now().Add(30 * time.Millisecond))
		if TestAlert() {
			t.Error("stale alert pending after AcquireDeadline")
		}
		errCh <- err
	})
	if err := <-errCh; !errors.Is(err, DeadlineExceeded) {
		t.Fatalf("AcquireDeadline on held mutex returned %v, want DeadlineExceeded", err)
	}
	if !m.Held() {
		t.Fatal("deadline path changed the mutex")
	}
	m.Release()

	done := make(chan struct{})
	Fork(func() {
		defer close(done)
		if err := m.AcquireDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Errorf("AcquireDeadline on free mutex returned %v", err)
		}
		m.Release()
		if err := m.AcquireDeadline(time.Now().Add(-time.Second)); err != nil {
			t.Errorf("expired AcquireDeadline on free mutex returned %v", err)
		}
		m.Release()
	})
	waitDone(t, done, "AcquireDeadline success paths")
}

func TestAcquireDeadlineUserAlert(t *testing.T) {
	var m Mutex
	m.Acquire()
	errCh := make(chan error, 1)
	th := Fork(func() {
		errCh <- m.AcquireDeadline(time.Now().Add(10 * time.Second))
	})
	deadline := time.Now().Add(5 * time.Second)
	for m.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("thread never blocked in AcquireDeadline")
		}
		time.Sleep(time.Millisecond)
	}
	Alert(th)
	if err := <-errCh; !errors.Is(err, Alerted) {
		t.Fatalf("alerted AcquireDeadline returned %v, want Alerted", err)
	}
	Join(th)
	m.Release()
}

// TestDeadlineFiresAfterSatisfiedWait is the deterministic regression test
// for the stale-alert race the deadline API fixes by construction: the wait
// is satisfied by a Signal, and then — deterministically, via the
// testDeadlineRaceWindow hook — the deadline fires BEFORE the epilogue
// cancels its timer. The old time.AfterFunc + Alert + timer.Stop pattern
// loses exactly this race and leaks the alert into the thread's next
// alertable wait (demonstrated in examples/timeout's regression test); the
// deadline variant must drain it, so the subsequent AlertWait returns
// normally.
func TestDeadlineFiresAfterSatisfiedWait(t *testing.T) {
	defer func() { testDeadlineRaceWindow = nil }()
	var (
		m Mutex
		c Condition
	)
	hookArmed := make(chan struct{}, 1)
	testDeadlineRaceWindow = func() {
		select {
		case <-hookArmed:
			// Lose the race on purpose: hold the epilogue open until the
			// deadline has actually fired and its Alert is pending.
			deadline := time.Now().Add(10 * time.Second)
			for !AlertPending(Self()) {
				if time.Now().After(deadline) {
					t.Error("deadline never fired inside the race window")
					return
				}
				time.Sleep(time.Millisecond)
			}
		default:
			// Not the instrumented call (second wait's epilogue): no-op.
		}
	}

	errs := make(chan error, 2)
	Fork(func() {
		m.Acquire()
		hookArmed <- struct{}{}
		// First wait: satisfied by Signal well before its deadline, but the
		// hook forces the deadline to fire before the cancel runs.
		errs <- c.AlertWaitDeadline(&m, time.Now().Add(250*time.Millisecond))
		// Second wait: alertable, with no deadline. If the first wait's
		// timer alert leaked, this returns Alerted — the poisoning.
		errs <- c.AlertWait(&m)
		m.Release()
	})
	deadline := time.Now().Add(5 * time.Second)
	for c.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first wait never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	c.Signal() // satisfy the first wait before its deadline
	if err := <-errs; err != nil {
		t.Fatalf("satisfied first wait returned %v, want nil (stale deadline alert must be drained)", err)
	}
	for c.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second wait never blocked — stale alert poisoned it?")
		}
		time.Sleep(time.Millisecond)
	}
	c.Signal()
	if err := <-errs; err != nil {
		t.Fatalf("second wait returned %v, want nil: the stale deadline alert leaked", err)
	}
}

// TestDeadlineEntryReuse drives many deadline episodes (mixed outcomes)
// through one thread's cached timer entry.
func TestDeadlineEntryReuse(t *testing.T) {
	var (
		m Mutex
		c Condition
	)
	done := make(chan struct{})
	ready := make(chan struct{}, 1)
	Fork(func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			m.Acquire()
			if i%2 == 0 {
				// Time out.
				err := c.AlertWaitDeadline(&m, time.Now().Add(2*time.Millisecond))
				if !errors.Is(err, DeadlineExceeded) {
					t.Errorf("round %d: got %v, want DeadlineExceeded", i, err)
				}
			} else {
				// Satisfied.
				ready <- struct{}{}
				err := c.AlertWaitDeadline(&m, time.Now().Add(10*time.Second))
				if err != nil {
					t.Errorf("round %d: got %v, want nil", i, err)
				}
			}
			m.Release()
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for i := 1; i < 50; i += 2 {
		<-ready
		for c.Waiters() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("waiter never blocked")
			}
			time.Sleep(time.Millisecond)
		}
		c.Signal()
	}
	waitDone(t, done, "deadline reuse loop")
}

// TestManyDeadlinesFire arms many concurrent deadlines across the wheel's
// buckets and checks that every one of them fires.
func TestManyDeadlinesFire(t *testing.T) {
	var s Semaphore
	s.P() // never available: every wait must end by deadline
	const n = 32
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		d := time.Duration(5+i*3) * time.Millisecond
		Fork(func() {
			errs <- s.AlertPDeadline(time.Now().Add(d))
		})
	}
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, DeadlineExceeded) {
				t.Fatalf("waiter %d returned %v, want DeadlineExceeded", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("waiter %d never timed out", i)
		}
	}
	s.V()
}

func TestAcquireDeadlineCheckingMode(t *testing.T) {
	prev := SetChecking(true)
	defer SetChecking(prev)
	var m Mutex
	done := make(chan struct{})
	Fork(func() {
		defer close(done)
		if err := m.AcquireDeadline(time.Now().Add(time.Second)); err != nil {
			t.Errorf("AcquireDeadline returned %v", err)
			return
		}
		// Holder tracking must see us, so Release's REQUIRES check passes.
		m.Release()
	})
	waitDone(t, done, "checking-mode AcquireDeadline")
}

// TestDeadlineNeverEarly runs many short deadline waits of all three kinds
// under contention and checks that none reports DeadlineExceeded while
// time.Now().Before(deadline) still holds. The timer wheel must fire by
// the same monotonic clock the deadline comparison uses: keyed on the wall
// clock, a thread descheduled between time.Now's two clock reads leaves a
// deadline whose wall and monotonic readings disagree, and the wheel fires
// before the deadline has passed.
func TestDeadlineNeverEarly(t *testing.T) {
	var (
		m Mutex
		c Condition
		s Semaphore
	)
	s.P() // never available: every AlertPDeadline ends by its deadline
	stop := make(chan struct{})
	hog := Fork(func() {
		// Contention: keep the mutex busy in short bursts, so
		// AcquireDeadline sometimes wins and sometimes times out.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m.Acquire()
			time.Sleep(time.Duration(i%4) * 50 * time.Microsecond)
			m.Release()
		}
	})
	const (
		waiters = 4
		rounds  = 150
	)
	var early, exceeded atomic.Int64
	var ths []*Thread
	for w := 0; w < waiters; w++ {
		w := w
		ths = append(ths, Fork(func() {
			for i := 0; i < rounds; i++ {
				deadline := time.Now().Add(time.Duration(20+(i*7+w*13)%180) * time.Microsecond)
				var err error
				switch i % 3 {
				case 0:
					m.Acquire()
					err = c.AlertWaitDeadline(&m, deadline)
					m.Release()
				case 1:
					if err = m.AcquireDeadline(deadline); err == nil {
						m.Release()
					}
				case 2:
					err = s.AlertPDeadline(deadline)
				}
				if errors.Is(err, DeadlineExceeded) {
					exceeded.Add(1)
					if time.Now().Before(deadline) {
						early.Add(1)
					}
				}
			}
		}))
	}
	for _, th := range ths {
		Join(th)
	}
	close(stop)
	Join(hog)
	s.V()
	if n := early.Load(); n != 0 {
		t.Fatalf("%d of %d DeadlineExceeded returns came before their deadline", n, exceeded.Load())
	}
	if exceeded.Load() == 0 {
		t.Fatal("no wait timed out: the deadline paths never ran")
	}
}
