package simthreads

import (
	"strconv"

	"threads/internal/sim"
	"threads/internal/spec"
)

// Condition is the simulated condition variable: an (eventcount, queue)
// pair, per §Implementation of the paper.
type Condition struct {
	w  *World
	id spec.CondID
	// ec is the eventcount: an atomically-readable, monotonically
	// increasing counter (Reed 77).
	ec sim.Word
	// committed counts threads that have entered the Wait protocol and
	// are not yet off q; the user code of Signal/Broadcast tests it to
	// avoid Nub calls. Whoever removes a thread from q drops its
	// commitment, and a wait that never queued drops its own.
	committed sim.Word
	q         tqueue
}

// NewCondition creates a condition variable (INITIALLY {}).
func (w *World) NewCondition() *Condition {
	w.nextCond++
	c := &Condition{w: w, id: w.nextCond}
	w.registerCond(c)
	return c
}

// ID returns the spec-level identity used in emitted actions.
func (c *Condition) ID() spec.CondID { return c.id }

// Wait atomically leaves m's critical section and suspends the caller on c;
// it returns inside a new critical section on m. The user code follows the
// paper: read the eventcount, Release(m), call the Nub's Block(c, i),
// Acquire(m).
func (c *Condition) Wait(e *sim.Env, m *Mutex) {
	c.block(e, m, false, "Wait")
	self := c.w.state(e.Self()).id
	m.acquireSilent(e, func() {
		c.w.emit(e, spec.Resume{T: self, M: m.id, C: c.id})
	})
}

// block is the front half of Wait and AlertWait: commit to the wait, read
// the eventcount i, release m, then the Nub's Block(c, i) — under the spin
// lock, compare i with the eventcount; if they differ a Signal or
// Broadcast intervened and Block just returns, otherwise the thread is
// queued and descheduled. An alertable block also returns on a pending
// alert or an Alert while queued, and reports whether it did; op names the
// operation in the deschedule reason.
func (c *Condition) block(e *sim.Env, m *Mutex, alertable bool, op string) (alerted bool) {
	w := c.w
	self := e.Self()
	st := w.state(self)
	// Committing to the wait is the Enqueue linearization: the counter
	// increment is the last instruction after which a Signal is obliged
	// to consider us waiting.
	e.Add(&c.committed, 1)
	w.emit(e, spec.Enqueue{T: st.id, M: m.id, C: c.id})
	i := e.Load(&c.ec)
	m.releaseSilent(e)
	e.Work(callCost)
	w.nubLock(e)
	if alertable && st.alerted {
		// Pending alert: the RAISES WHEN clause already holds; skip the
		// queue entirely. (The alert flag is consumed at the
		// AlertResume linearization, in the caller.)
		w.nubUnlock(e)
		c.uncommit(e)
		return true
	}
	if e.Load(&c.ec) != i {
		w.nubUnlock(e)
		c.uncommit(e)
		w.Stats.WaitElided++
		return false
	}
	c.q.push(e, self)
	if alertable {
		st.alertQ = &c.q
	}
	w.nubUnlock(e)
	w.Stats.WaitPark++
	e.Deschedule(op + "(c" + strconv.Itoa(int(c.id)) + ")")
	// Whoever woke us popped us first, except Alert; an alertable waiter
	// finds out which under the spin lock.
	if alertable {
		w.nubLock(e)
	}
	woke := st.wakeup
	st.wakeup = wakeNone
	st.alertQ = nil
	// The corrected AlertWait semantics: leave c before raising, so a
	// later Signal is not absorbed by this departed thread. A Signal or
	// Broadcast that popped us first dropped our commitment with the pop.
	if woke == wakeAlert && c.q.remove(e, self) {
		c.uncommit(e)
	}
	if alertable {
		w.nubUnlock(e)
	}
	return woke == wakeAlert
}

// Signal makes one waiting thread ready, if any thread is committed to
// waiting; threads racing between the eventcount read and Block are
// released as well (they observe the advanced count), which is why Signal
// may unblock more than one thread (experiment E3).
func (c *Condition) Signal(e *sim.Env) {
	w := c.w
	// User code: no Nub call when no thread is committed to waiting.
	if !w.opts.NoSignalFastPath {
		if e.Load(&c.committed) == 0 {
			e.Work(branchCost)
			w.Stats.SignalFast++
			return
		}
		e.Work(branchCost)
	}
	w.Stats.SignalNub++
	e.Work(callCost)
	w.nubLock(e)
	e.Add(&c.ec, 1)
	self := w.state(e.Self()).id
	var woken *sim.T
	for {
		t := c.q.pop(e)
		if t == nil {
			break
		}
		c.uncommit(e)
		st := w.state(t)
		if st.wakeup == wakeNone {
			st.wakeup = wakeTransfer
			woken = t
			break
		}
		// Claimed by Alert; its wakeup belongs to the next thread.
	}
	var removed []spec.ThreadID
	if woken != nil {
		removed = []spec.ThreadID{w.state(woken).id}
	}
	w.emit(e, spec.Signal{T: self, C: c.id, Removed: removed})
	if woken != nil {
		e.MakeReady(woken)
		w.Stats.SignalWoke++
	}
	w.nubUnlock(e)
}

// Broadcast makes all waiting threads ready.
func (c *Condition) Broadcast(e *sim.Env) {
	w := c.w
	if !w.opts.NoSignalFastPath {
		if e.Load(&c.committed) == 0 {
			e.Work(branchCost)
			w.Stats.BcastFast++
			return
		}
		e.Work(branchCost)
	}
	w.Stats.BcastNub++
	e.Work(callCost)
	w.nubLock(e)
	e.Add(&c.ec, 1)
	self := w.state(e.Self()).id
	var woken []*sim.T
	for {
		t := c.q.pop(e)
		if t == nil {
			break
		}
		c.uncommit(e)
		st := w.state(t)
		if st.wakeup == wakeNone {
			st.wakeup = wakeTransfer
			woken = append(woken, t)
		}
	}
	w.emit(e, spec.Broadcast{T: self, C: c.id})
	for _, t := range woken {
		e.MakeReady(t)
		w.Stats.BcastWoke++
	}
	w.nubUnlock(e)
}

// AlertWait is Wait, except it reports true (Alerted) if the wait was ended
// by Alert; in that case the thread was removed from c, the alert was
// consumed, and the mutex was still reacquired before returning.
func (c *Condition) AlertWait(e *sim.Env, m *Mutex) (alerted bool) {
	alerted = c.block(e, m, true, "AlertWait")
	st := c.w.state(e.Self())
	self := st.id
	if alerted && c.w.opts.BuggyAlertSeize {
		// The first released specification's Raise path (VariantNoMNil):
		// no "m = NIL &" guard, so the alerted thread returns — believing
		// it holds m — without waiting for the holder. It barges into the
		// guarded region, and its later Release clears a lock bit it
		// never owned.
		st.alerted = false
		c.w.emit(e, spec.AlertResumeRaise{T: self, M: m.id, C: c.id, Variant: spec.VariantNoMNil})
		e.Work(branchCost)
		return true
	}
	m.acquireSilent(e, func() {
		if alerted {
			st.alerted = false
			c.w.emit(e, spec.AlertResumeRaise{T: self, M: m.id, C: c.id, Variant: spec.VariantFinal})
		} else {
			c.w.emit(e, spec.AlertResumeReturn{T: self, M: m.id, C: c.id})
		}
	})
	return alerted
}

// uncommit drops one thread's commitment to waiting on c (adds -1).
func (c *Condition) uncommit(e *sim.Env) { e.Add(&c.committed, ^uint64(0)) }

// Waiters reports the queue length without simulating accesses (assertions
// and reporting only).
func (c *Condition) Waiters() int { return len(c.q.items) }
