package simthreads

import (
	"threads/internal/sim"
	"threads/internal/spec"
)

// Alert requests that thread t raise Alerted: it inserts t into the alerts
// set and, if t is blocked in AlertWait or AlertP, claims and wakes it. A
// thread blocked in plain Acquire, Wait or P is not disturbed.
func (w *World) Alert(e *sim.Env, t *sim.T) {
	e.Work(callCost)
	w.nubLock(e)
	st := w.state(t)
	st.alerted = true
	w.emit(e, spec.Alert{T: w.state(e.Self()).id, Target: st.id})
	if st.alertQ != nil && st.wakeup == wakeNone {
		st.wakeup = wakeAlert
		e.MakeReady(t)
	}
	w.nubUnlock(e)
}

// TestAlert reports whether the calling thread has a pending alert,
// consuming it.
func (w *World) TestAlert(e *sim.Env) bool {
	e.Work(callCost)
	w.nubLock(e)
	st := w.state(e.Self())
	b := st.alerted
	st.alerted = false
	w.emit(e, spec.TestAlert{T: st.id, Result: b})
	w.nubUnlock(e)
	return b
}

// AlertPending reports t's alert flag without simulating an access
// (assertions only).
func (w *World) AlertPending(t *sim.T) bool { return w.state(t).alerted }
