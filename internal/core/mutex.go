package core

import "sync/atomic"

// Mutex is the basic tool enabling threads to cooperate on access to shared
// variables. In the specification a Mutex is a Thread-valued variable,
// INITIALLY NIL; the zero value of this type is that initial state.
//
// Specification (SRC Report 20):
//
//	ATOMIC PROCEDURE Acquire(VAR m: Mutex)
//	  MODIFIES AT MOST [m]   WHEN m = NIL   ENSURES m' = SELF
//
//	ATOMIC PROCEDURE Release(VAR m: Mutex)
//	  REQUIRES m = SELF   MODIFIES AT MOST [m]   ENSURES m' = NIL
//
// A Mutex is its gate. By default the representation records no holder
// (lock bit + queue only) and the REQUIRES clause of Release is the
// caller's obligation. The gate's one holder record — the specification's
// state variable itself — is maintained when checking mode (SetChecking)
// or this mutex's priority inheritance is on.
type Mutex struct {
	g gate
}

// checking gates the debug mode. It trades the paper's 5-instruction fast
// path for detection of Release's REQUIRES violations — the check the
// paper's users wished their debugger could do.
var checking atomic.Bool

// SetChecking enables or disables checking mode on all mutexes and returns
// the previous setting. With checking on, every mutex tracks its holder;
// Release panics if the calling thread does not hold the mutex, and Acquire
// panics on attempted recursive acquisition (which would otherwise
// deadlock silently). Flip it only while no mutex is held.
func SetChecking(on bool) bool { return checking.Swap(on) }

// holderTracking is the one predicate behind the holder record: a mutex
// gate tracks its holder in checking mode (check) or with priority
// inheritance on. Semaphore gates never consult it.
func (g *gate) holderTracking() (track, check bool) {
	check = checking.Load()
	return check || g.pi.Load(), check
}

// mutexOp is what a Mutex operation decides once, on entry, and shares
// across tracing, checking and priority inheritance: SELF is recovered at
// most once per operation, and only when the holder is tracked or tracing
// is on.
type mutexOp struct {
	t            *Thread
	track, check bool
	traced       bool
}

// op builds the operation context. t is the calling thread when the
// caller already knows it; otherwise SELF is recovered here, and only if
// tracking or tracing needs it.
func (m *Mutex) op(t *Thread) mutexOp {
	op := mutexOp{t: t, traced: traceOn.Load()}
	op.track, op.check = m.g.holderTracking()
	if t == nil && (op.track || op.traced) {
		op.t = Self()
	}
	return op
}

// trace returns the traceCtx for the operation's gate transition; obj2
// names the condition of a Wait's reacquisition.
func (op mutexOp) trace(kind TraceKind, obj2 uint64) traceCtx {
	if !op.traced {
		return traceCtx{}
	}
	return traceCtx{kind: kind, tid: op.t.id, obj2: obj2}
}

// acquired is the entry epilogue of every path that completes a Mutex
// acquisition: it installs the caller as the holder.
func (m *Mutex) acquired(op mutexOp) {
	if op.track {
		m.g.nub.Lock()
		m.g.holder = op.t
		m.g.nub.Unlock()
	}
}

// releasing is the release prologue shared by Release and Wait's release
// of the mutex. It runs before the lock word transitions: in checking mode
// it asserts REQUIRES m = SELF; it clears the holder under the gate's nub
// lock, so a donor serialized after it sees no holder and skips; and it
// removes the donation the hold accumulated, so the departing holder never
// keeps a boost for a mutex it no longer holds.
func (m *Mutex) releasing(op mutexOp, what string) {
	if !op.track {
		return
	}
	g := &m.g
	g.nub.Lock()
	h := g.holder
	if op.check && h != op.t {
		g.nub.Unlock()
		panic("threads: " + what + " REQUIRES m = SELF violated by " + op.t.name)
	}
	g.holder = nil
	g.nub.Unlock()
	if h != nil {
		h.undonate(g)
	}
}

// checkNotHeld is checking mode's guard against recursive acquisition: it
// reads the holder record under the gate's nub lock.
func (m *Mutex) checkNotHeld(op mutexOp, what string) {
	if !op.check {
		return
	}
	m.g.nub.Lock()
	h := m.g.holder
	m.g.nub.Unlock()
	if h == op.t {
		panic("threads: recursive " + what + " would deadlock: " + op.t.name + " already holds the mutex")
	}
}

// Acquire blocks until the mutex is NIL and then makes the calling thread
// its holder. The WHEN clause (m = NIL) may impose a delay until another
// thread's Release makes it true; if several threads are blocked in
// Acquire, exactly one of them proceeds per Release, because the winner's
// ENSURES falsifies the others' WHEN clauses.
func (m *Mutex) Acquire() {
	if !traceOn.Load() && !checking.Load() && !m.g.pi.Load() {
		// The paper's fast path: untraced, no holder to track. The flags
		// are tested inline rather than through holderTracking: behind an
		// inlined predicate the compiler lays this case out after a taken
		// branch, and the uncontended pair measured ~8 ns slower (go1.24,
		// 2-vCPU Xeon).
		m.g.acquire(nil, &mutexGateStats, traceCtx{}, false)
		return
	}
	op := m.op(nil)
	m.checkNotHeld(op, "Acquire")
	m.g.acquire(op.t, &mutexGateStats, op.trace(TraceAcquire, 0), false)
	m.acquired(op)
}

// TryAcquire acquires the mutex if it is NIL and reports whether it did.
// (An extension: the Firefly interface had no TryAcquire, but the fast path
// makes it free and tests and examples use it.)
func (m *Mutex) TryAcquire() bool { return m.tryAcquire(m.op(nil)) }

func (m *Mutex) tryAcquire(op mutexOp) bool {
	if !m.g.tryAcquire(op.trace(TraceAcquire, 0)) {
		return false
	}
	m.acquired(op)
	statInc(statAcquireFast)
	return true
}

// Release makes the mutex NIL and, if threads are blocked in Acquire, makes
// one of them ready. The caller must hold the mutex (REQUIRES m = SELF);
// with checking disabled a violation is not detected, matching the paper's
// implementation, which keeps no holder.
func (m *Mutex) Release() {
	if !traceOn.Load() && !checking.Load() && !m.g.pi.Load() {
		// The paper's fast path, tested inline as in Acquire.
		m.g.release(&mutexGateStats, traceCtx{})
		return
	}
	op := m.op(nil)
	m.releasing(op, "Release")
	m.g.release(&mutexGateStats, op.trace(TraceRelease, 0))
}

// SetPriorityInheritance enables or disables priority inheritance on this
// mutex and returns the previous setting. With PI on, a blocked Acquire
// donates its thread's effective priority to the holder for the duration
// of the hold (gate.piDonate); the donation is removed at Release and the
// boost/restore transitions carry conformance stamps. A PI mutex tracks
// its holder, which costs a SELF recovery per acquisition — enable it on
// the mutexes whose critical sections priority-sensitive threads contend
// for, not globally. Flip only while the mutex is free.
func (m *Mutex) SetPriorityInheritance(on bool) bool { return m.g.pi.Swap(on) }

// PriorityInheritance reports whether priority inheritance is enabled.
func (m *Mutex) PriorityInheritance() bool { return m.g.pi.Load() }

// acquireResume is Wait's mutex reacquisition: like Acquire, but the trace
// event (Resume or AlertResume.Return, carrying the condition in obj2) is
// supplied by the caller. A zero tc reacquires untraced; a silent one
// takes the traced transitions without emitting.
func (m *Mutex) acquireResume(op mutexOp, tc traceCtx) {
	m.g.acquire(op.t, &mutexGateStats, tc, false)
	m.acquired(op)
}

// Held reports whether some thread holds the mutex. Advisory: the answer
// may be stale immediately.
func (m *Mutex) Held() bool { return m.g.locked() }

// Waiters returns the number of threads blocked in Acquire (advisory).
func (m *Mutex) Waiters() int { return m.g.waiters() }

// Lock brackets body with Acquire and Release, the Modula-2+
//
//	LOCK m DO statement-sequence END
//
// construct: Release runs even if body panics (the TRY ... FINALLY of the
// expansion), and the bracketing is syntactically enforced.
func Lock(m *Mutex, body func()) {
	m.Acquire()
	defer m.Release()
	body()
}
