package core

import (
	"sync/atomic"

	"threads/internal/queue"
	"threads/internal/spinlock"
)

// gate is the shared mechanism behind Mutex and Semaphore. The paper is
// explicit that "the implementation of semaphores is identical to mutexes:
// P is the same as Acquire and V is the same as Release"; the two public
// types differ only in specification (Release has a REQUIRES clause, V does
// not, and only semaphores have AlertP).
//
// Representation, per the paper: a pair (lock bit, queue). Bit 0 of word is
// 1 iff a thread is inside (mutex held / semaphore unavailable); with
// conformance tracing enabled, bits 1..63 carry the stamp of the transition
// that produced the current value (see trace.go for the full argument). The
// queue holds threads blocked awaiting their WHEN condition, and is
// manipulated only under the Nub spin lock.
type gate struct {
	word atomic.Uint64
	qlen atomic.Int32 // mirror of q.Len(), readable outside the spin lock
	nub  spinlock.Lock
	// q orders blocked threads by effective priority, FIFO within a band —
	// the Nub's priority scheduling applied to wakeup selection. While no
	// thread has a nonzero priority every waiter is enqueued at 0 and the
	// order is exactly the old FIFO.
	q       queue.PriorityQueue[*waiter]
	traceID atomic.Uint64 // conformance-trace identity, assigned lazily

	// pi enables priority inheritance (Mutex.SetPriorityInheritance): a
	// blocked Acquire donates its priority to the holder, restored at
	// Release.
	pi atomic.Bool
	// holder is the mutex's holder, the specification's m, while the gate
	// tracks it (holderTracking); nil otherwise. Mutex.acquired (or, for
	// a transfer, releaseHandoff) installs it; Mutex.releasing clears it.
	holder *Thread //threads:guardedby nub
}

// gateLockedBit is bit 0 of the gate word.
const gateLockedBit = 1

// gateStats routes the shared mechanism's counters to the mutex or
// semaphore columns of Stats, and its trace events to the mutex or
// semaphore action kinds.
type gateStats struct {
	fast, spin, nubEnter, backout, park statID
	relFast, relNub, relHandoff         statID
	tkRel                               TraceKind // Release or V
}

var mutexGateStats = gateStats{
	fast: statAcquireFast, spin: statAcquireSpin, nubEnter: statAcquireNub,
	backout: statAcquireBackout, park: statAcquirePark,
	relFast: statReleaseFast, relNub: statReleaseNub, relHandoff: statReleaseHandoff,
	tkRel: TraceRelease,
}

var semGateStats = gateStats{
	fast: statPFast, spin: statPSpin, nubEnter: statPNub,
	backout: statPBackout, park: statPPark,
	relFast: statVFast, relNub: statVNub, relHandoff: statVHandoff,
	tkRel: TraceV,
}

// tryAcquire is the user-code fast path: a single test-and-set when
// untraced. Traced, the transition is load → draw stamp → CAS, so the stamp
// is certified against any concurrent transition on this gate (trace.go).
func (g *gate) tryAcquire(tc traceCtx) bool {
	if tc.kind == TraceNone {
		if g.word.CompareAndSwap(0, gateLockedBit) {
			return true
		}
		// The word may carry stale stamp bits from a traced period; one
		// successful untraced transition returns it to the plain 0/1
		// regime.
		w := g.word.Load()
		return w != 0 && w&gateLockedBit == 0 && g.word.CompareAndSwap(w, gateLockedBit)
	}
	w := g.word.Load()
	if w&gateLockedBit != 0 {
		return false
	}
	seq := nextTraceSeq()
	if !g.word.CompareAndSwap(w, seq<<1|gateLockedBit) {
		return false
	}
	if !tc.silent {
		traceEmit(seq, tc.kind, tc.tid, traceObjID(&g.traceID), tc.obj2, false)
	}
	return true
}

// acquire implements Acquire and P, and — with alertable set — AlertP's
// blocking discipline (AcquireDeadline's too): the user code test-and-sets
// the lock bit, then briefly spins for the holder to leave, and calls the
// Nub subroutine only if the bit stays set. t carries the calling thread
// when the caller already knows it (holder-tracking mutexes, traced
// operations, every alertable wait); nil lets the slow path recover it
// lazily, and only when priorities are in use.
//
// An alertable wait can be claimed by Alert(t), in which case the thread
// leaves the queue and acquire reports alerted instead of acquiring. tc
// carries the normal-return event (for AlertP, AlertP.Return); on the
// alerted path no gate event is emitted — the caller records the alerts-set
// deletion under t's alertLock, where it is serialized against Alert and
// TestAlert.
func (g *gate) acquire(t *Thread, st *gateStats, tc traceCtx, alertable bool) (alerted bool) {
	if g.tryAcquire(tc) {
		// Both WHEN clauses of AlertP may be enabled at once (s available
		// and SELF in alerts); the implementation is free to choose, and
		// the fast path chooses to return normally.
		statInc(st.fast)
		return false
	}
	// A pending alert skips the spin: the RAISES clause is already enabled.
	if !(alertable && t.alerted.Load()) && g.spinAcquire(tc) {
		statInc(st.spin)
		return false
	}
	return g.acquireNub(t, st, tc, alertable)
}

// acquireNub is the Nub subroutine for Acquire. Under the spin lock it adds
// the calling thread to the queue and tests the lock bit again. If the bit
// is still set the thread is descheduled; otherwise it removes itself and
// the entire Acquire operation — beginning at the test-and-set — is
// retried. (SRC Report 20, §Implementation: Mutexes and semaphores.)
//
// One waiter serves every round of the retry loop; the enqueue and the
// back-out happen under a single hold of the Nub lock, so a backed-out
// waiter was never visible to releaseNub and its episode ends unclaimed —
// unless Alert claimed it, which only an alertable wait registers for.
func (g *gate) acquireNub(t *Thread, st *gateStats, tc traceCtx, alertable bool) (alerted bool) {
	statInc(st.nubEnter)
	w := getWaiter(t)
	t = w.capturePri(t)
	w.parkStart = nanotime()
	for {
		if alertable && t.registerAlertWaiter(w) {
			w.endEpisode()
			return true
		}
		reason := reasonNone
		g.nub.Lock()
		g.q.Push(&w.item)
		g.qlen.Add(1)
		if g.locked() {
			g.piDonate(w)
			g.nub.Unlock()
			statInc(st.park)
			reason = w.park()
		} else {
			// A Release slipped in before we enqueued; back out and
			// retry from the test-and-set.
			g.q.Remove(&w.item)
			g.qlen.Add(-1)
			g.nub.Unlock()
			statInc(st.backout)
		}
		if alertable {
			t.clearAlertWaiter()
			if w.reason() == reasonAlert {
				if reason == reasonNone {
					// Alert claimed us while we backed out; honor it.
					// The enqueue and back-out were one critical
					// section, so only Alert can have claimed — and it
					// owes a wake token, which must be consumed before
					// reuse.
					w.drain()
				} else {
					// Leave the queue before reporting the alert so a
					// later Release or V is not absorbed by a departed
					// thread.
					g.nub.Lock()
					if g.q.Remove(&w.item) {
						g.qlen.Add(-1)
					}
					g.nub.Unlock()
				}
				w.endEpisode()
				return true
			}
		}
		// A racing Alert that lost the claim to a hand-off or wake stays
		// pending for the next alertable point — the implementation
		// chose RETURNS, as the fast path does.
		if reason == reasonHandoff && g.finishHandoff(w, tc) {
			return false
		}
		if g.tryAcquire(tc) {
			w.endEpisode()
			return false
		}
		w.begin()
	}
}

// release implements Release/V. The user code clears the lock bit and calls
// the Nub subroutine only if the queue is not empty. Traced, the clearing
// transition draws a stamp inside its CAS window and emits the
// Release/V event; the loop only retries when a concurrent transition
// intervened (possible for semaphores, whose V has no REQUIRES clause).
func (g *gate) release(st *gateStats, tc traceCtx) {
	if g.qlen.Load() != 0 && g.releaseHandoff(st, tc) {
		return
	}
	if tc.kind == TraceNone {
		g.word.Store(0)
	} else {
		for {
			w := g.word.Load()
			seq := nextTraceSeq()
			if g.word.CompareAndSwap(w, seq<<1) {
				traceEmit(seq, tc.kind, tc.tid, traceObjID(&g.traceID), 0, false)
				break
			}
		}
	}
	g.releaseCommon(st)
}

// releaseEmbed is release for a traced Wait's mutex hand-off: the caller
// has already emitted an Enqueue event (which subsumes the
// specification-level Release) with the given stamp, and the stamp is
// embedded in the word so any later Acquire of this mutex outranks the
// Enqueue. Only mutex holders call this, so the CAS cannot race another
// transition.
func (g *gate) releaseEmbed(st *gateStats, seq uint64) {
	for {
		w := g.word.Load()
		if g.word.CompareAndSwap(w, seq<<1) {
			break
		}
	}
	g.releaseCommon(st)
}

func (g *gate) releaseCommon(st *gateStats) {
	if g.qlen.Load() == 0 {
		statInc(st.relFast)
		return
	}
	g.releaseNub(st)
}

// releaseNub is the Nub subroutine for Release: take one thread from the
// queue and make it ready. The woken thread retries its test-and-set and
// may lose to a barging acquirer; the specification does not say which of
// the blocked threads runs next, nor when.
//
// The claim happens while the Nub lock is still held: a popped waiter
// cannot finish its episode (and be reused) before its thread reacquires
// this lock on the alerted path, so the claim always addresses the episode
// the pop belonged to.
func (g *gate) releaseNub(st *gateStats) {
	statInc(st.relNub)
	g.nub.Lock()
	for {
		n := g.q.Pop()
		if n == nil {
			g.nub.Unlock()
			return
		}
		g.qlen.Add(-1)
		w := n.Value
		if w.claim(reasonWake) {
			g.nub.Unlock()
			w.wake()
			return
		}
		// The waiter was claimed by Alert after enqueueing; it no
		// longer needs this wakeup. Give it to the next thread.
	}
}

// releaseHandoff hands the gate directly to a queued waiter instead of
// clearing the lock bit and letting the woken thread race barging
// acquirers (see handoff.go for the policy). Returns true if the release
// was consumed by a transfer; false sends the caller down the ordinary
// clear-and-wake path.
//
// Untraced, the transfer touches the word not at all: the bit stays set
// and ownership passes to the recipient on the wake's happens-before edge.
// That requires the bit to BE set — the caller's token is what is being
// gifted. For a mutex it always is (only the holder releases); for a
// semaphore a V with the bit already clear has no token in hand, and
// handing one off anyway would let a later P acquire the cleared word and
// admit two threads on one token.
//
// Traced, the transfer must appear in the linearized trace as the release
// followed immediately by the recipient's acquisition, with no event on
// this gate in between. Two certified transitions arrange that: the first
// CAS is the ordinary stamped release (seqR); the second CAS re-takes the
// word for the recipient with a fresh stamp (seqA). The second CAS can
// fail only if some other transition intervened (a barging acquirer's CAS,
// a concurrent V) — exactly the case in which a pre-drawn stamp would have
// replayed as an acquisition of an unavailable gate — and then the
// transfer is demoted: the recipient wakes with handoffSeq 0 and retries
// its test-and-set like any woken thread. Stamp order equals CAS order for
// every certified transition (trace.go), so the replay sees
// ... Release(seqR), Acquire(seqA) ... and stays clean.
func (g *gate) releaseHandoff(st *gateStats, tc traceCtx) bool {
	mode := HandoffMode(handoffMode.Load())
	if mode == HandoffOff || !g.locked() {
		return false
	}
	var cutoff int64
	if mode == HandoffAdaptive {
		cutoff = nanotime() - handoffStarveNs
	}
	g.nub.Lock()
	if mode == HandoffAdaptive {
		// Adaptive policy: hand off only once the queue's head has
		// starved past the threshold. parkStart was written before the
		// waiter was published to the queue, so reading it under the Nub
		// lock is ordered; 0 means the head has not committed to parking
		// yet and certainly is not starving.
		n := g.q.Peek()
		if n == nil || n.Value.parkStart == 0 || n.Value.parkStart > cutoff {
			g.nub.Unlock()
			return false
		}
	}
	var w *waiter
	for {
		n := g.q.Pop()
		if n == nil {
			g.nub.Unlock()
			return false
		}
		g.qlen.Add(-1)
		w = n.Value
		if w.claim(reasonHandoff) {
			break
		}
		// Claimed by Alert after enqueueing; it no longer wants the gate.
	}
	if track, _ := g.holderTracking(); track && st == &mutexGateStats {
		// The transfer makes w's thread the holder the moment the wake
		// lands; install it while the nub lock still serializes donors.
		// Every path that parks on a tracked mutex names its thread.
		g.holder = w.owner
	}
	g.nub.Unlock()
	statInc(st.relHandoff)
	if tc.kind == TraceNone {
		w.handoffSeq = 0
		w.wake()
		return true
	}
	for {
		old := g.word.Load()
		seqR := nextTraceSeq()
		if !g.word.CompareAndSwap(old, seqR<<1) {
			continue
		}
		traceEmit(seqR, st.tkRel, tc.tid, traceObjID(&g.traceID), 0, false)
		seqA := nextTraceSeq()
		if g.word.CompareAndSwap(seqR<<1, seqA<<1|gateLockedBit) {
			w.handoffSeq = seqA
		} else {
			w.handoffSeq = 0 // demoted: a concurrent transition intervened
		}
		w.wake()
		return true
	}
}

// finishHandoff completes a direct hand-off on the recipient side, after
// its park returned reasonHandoff. Untraced, the gate is already ours (the
// bit never cleared). Traced, a nonzero handoffSeq is the certified stamp
// of our acquisition and we emit the event the winning CAS would have; a
// zero handoffSeq is a demoted transfer and the caller must retry its
// test-and-set (the episode is then left open for the retry loop).
func (g *gate) finishHandoff(w *waiter, tc traceCtx) bool {
	seq := w.handoffSeq
	if tc.kind != TraceNone && seq == 0 {
		return false
	}
	w.endEpisode()
	if tc.kind != TraceNone && !tc.silent {
		traceEmit(seq, tc.kind, tc.tid, traceObjID(&g.traceID), tc.obj2, false)
	}
	return true
}

// ---------------------------------------------------------------------------
// Priority inheritance (Mutex opt-in).
//
// A blocked Acquire on a PI gate donates its effective priority to the
// holder; the holder's Release removes the donation. Donation and holder
// maintenance are serialized by the gate's nub spin lock: donors read
// holder and donate while holding it, and the releaser clears holder
// under it before undonating, so no donation can land on a thread that has
// already left the gate — a boost can therefore never outlive the hold it
// compensates for. The nesting nub → donLock is one of the package's two
// spin-lock nestings (the other is Signal's c.nub → mg.nub); donLock
// acquires nothing, so no cycle is possible.
//
// The boost itself is a scheduling heuristic on this backend: the Go
// scheduler does not expose thread priorities, so inheritance acts through
// wakeup ordering (the boosted holder's own subsequent waits outrank the
// medium band) rather than preemption. The simulated Firefly
// (internal/simthreads) implements the exact form, where the boost
// reorders the ready pool retroactively; the priority-inversion litmus
// model-checks that form, and the conformance stamps emitted here hold
// both backends to the same boost/restore discipline.
// ---------------------------------------------------------------------------

// piDonate donates the enqueued waiter's priority to the gate's holder.
// Called with g.nub held, after the waiter committed to parking. No-ops
// unless PI is on, the holder is known, and the donation would raise it.
func (g *gate) piDonate(w *waiter) {
	if !g.pi.Load() {
		return
	}
	h := g.holder
	if h == nil || h == w.owner {
		return
	}
	pri := int32(w.item.Priority)
	if pri > h.effPri.Load() {
		h.donate(g, pri)
	}
}

// locked reports the lock bit (true = held/unavailable).
func (g *gate) locked() bool { return g.word.Load()&gateLockedBit != 0 }

// waiters returns the current queue length (advisory).
func (g *gate) waiters() int { return int(g.qlen.Load()) }
