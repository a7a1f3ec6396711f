package simthreads

import (
	"strconv"

	"threads/internal/sim"
	"threads/internal/spec"
)

// Mutex is the simulated Threads mutex: a (lock bit, queue) pair with no
// recorded holder.
type Mutex struct {
	w  *World
	id spec.MutexID
	g  gate
}

// NewMutex creates a mutex (INITIALLY NIL). With the world's
// PriorityInheritance option on, the mutex donates blocked acquirers'
// priorities to its holder.
func (w *World) NewMutex() *Mutex {
	w.nextMutex++
	m := &Mutex{w: w, id: w.nextMutex}
	m.g.w = w
	m.g.pi = w.opts.PriorityInheritance
	w.registerGate(&m.g)
	return m
}

// ID returns the spec-level identity used in emitted actions.
func (m *Mutex) ID() spec.MutexID { return m.id }

// Acquire blocks until the mutex is free and takes it. The uncontended
// path is 2 instructions (test-and-set, branch).
func (m *Mutex) Acquire(e *sim.Env) {
	self := m.w.state(e.Self()).id
	onAcquired := func() { m.w.emit(e, spec.Acquire{T: self, M: m.id}) }
	if m.w.opts.NoUserFastPath {
		m.g.acquireNubOnly(e, "Acquire(m"+strconv.Itoa(int(m.id))+")", onAcquired)
		return
	}
	if m.g.tryAcquire(e, onAcquired) {
		m.w.Stats.AcquireFast++
		return
	}
	m.w.Stats.AcquireNub++
	m.g.acquireSlow(e, "Acquire(m"+strconv.Itoa(int(m.id))+")", onAcquired, nil)
}

// acquireSilent reacquires the mutex inside Wait/AlertWait; the
// linearization event is the Resume/AlertResume emitted by the caller.
func (m *Mutex) acquireSilent(e *sim.Env, onAcquired func()) {
	if m.g.tryAcquire(e, onAcquired) {
		m.w.Stats.AcquireFast++
		return
	}
	m.w.Stats.AcquireNub++
	m.g.acquireSlow(e, "Resume(m"+strconv.Itoa(int(m.id))+")", onAcquired, nil)
}

// Release frees the mutex and, if threads are queued, moves one to the
// ready pool. The uncontended path is 3 instructions (clear, queue test,
// branch).
func (m *Mutex) Release(e *sim.Env) {
	self := m.w.state(e.Self()).id
	onReleased := func() { m.w.emit(e, spec.Release{T: self, M: m.id}) }
	if m.w.opts.NoUserFastPath {
		m.g.releaseNubOnly(e, onReleased)
		return
	}
	if m.g.release(e, onReleased) {
		m.w.Stats.ReleaseNub++
	} else {
		m.w.Stats.ReleaseFast++
	}
}

// releaseSilent releases inside Wait/AlertWait (the Enqueue event covers
// the m' = NIL transition).
func (m *Mutex) releaseSilent(e *sim.Env) {
	if m.g.release(e, nil) {
		m.w.Stats.ReleaseNub++
	} else {
		m.w.Stats.ReleaseFast++
	}
}

// Held reports the lock bit without simulating an access (assertions only).
func (m *Mutex) Held() bool { return m.g.lockBit.Peek() != 0 }

// Semaphore is the simulated binary semaphore — the identical mechanism
// under a different specification.
type Semaphore struct {
	w  *World
	id spec.SemID
	g  gate
}

// NewSemaphore creates a semaphore (INITIALLY available).
func (w *World) NewSemaphore() *Semaphore {
	w.nextSem++
	s := &Semaphore{w: w, id: w.nextSem}
	s.g.w = w
	w.registerGate(&s.g)
	return s
}

// ID returns the spec-level identity used in emitted actions.
func (s *Semaphore) ID() spec.SemID { return s.id }

// P blocks until the semaphore is available and takes it.
func (s *Semaphore) P(e *sim.Env) {
	self := s.w.state(e.Self()).id
	onAcquired := func() { s.w.emit(e, spec.P{T: self, S: s.id}) }
	if s.w.opts.NoUserFastPath {
		s.g.acquireNubOnly(e, "P(s"+strconv.Itoa(int(s.id))+")", onAcquired)
		return
	}
	if s.g.tryAcquire(e, onAcquired) {
		return
	}
	s.g.acquireSlow(e, "P(s"+strconv.Itoa(int(s.id))+")", onAcquired, nil)
}

// V makes the semaphore available, waking one queued thread if any.
func (s *Semaphore) V(e *sim.Env) {
	self := s.w.state(e.Self()).id
	onReleased := func() { s.w.emit(e, spec.V{T: self, S: s.id}) }
	if s.w.opts.NoUserFastPath {
		s.g.releaseNubOnly(e, onReleased)
		return
	}
	s.g.release(e, onReleased)
}

// AlertP is P, except that it may report the caller's pending alert
// instead of acquiring; it returns true if alerted. When both outcomes are
// possible the implementation chooses arbitrarily (experiment E8).
func (s *Semaphore) AlertP(e *sim.Env) (alerted bool) {
	self := s.w.state(e.Self()).id
	onAcquired := func() { s.w.emit(e, spec.AlertPReturn{T: self, S: s.id}) }
	onAlerted := func() { s.w.emit(e, spec.AlertPRaise{T: self, S: s.id}) }
	if s.g.tryAcquire(e, onAcquired) {
		// Both WHEN clauses may have been enabled; the fast path chooses
		// RETURNS, as the Firefly implementation did.
		return false
	}
	return s.g.acquireSlow(e, "AlertP(s"+strconv.Itoa(int(s.id))+")", onAcquired, onAlerted)
}

// Available reports the lock bit without simulating an access.
func (s *Semaphore) Available() bool { return s.g.lockBit.Peek() == 0 }
