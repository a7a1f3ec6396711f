package core

import (
	"testing"
	"time"
)

// gateOps binds one caller of the gate's acquisition loop to a fresh gate:
// hold takes the gate from the test goroutine, enter blocks on it from a
// forked thread, release gives back what either took, and waiters reports
// the gate's queue length.
type gateOps struct {
	hold, release func()
	enter         func() error
	waiters       func() int
}

type acquireEntry struct {
	name      string
	alertable bool // AlertP and AcquireDeadline honor Alert
	mutex     bool // Acquire/Release stats columns rather than P/V
	checking  bool // run with checking mode on
	bind      func() gateOps
}

func acquireEntries() []acquireEntry {
	sem := func(enter func(s *Semaphore) error) func() gateOps {
		return func() gateOps {
			s := new(Semaphore)
			return gateOps{s.P, s.V, func() error { return enter(s) }, s.Waiters}
		}
	}
	mutex := func(enter func(m *Mutex) error) func() gateOps {
		return func() gateOps {
			m := new(Mutex)
			return gateOps{m.Acquire, m.Release, func() error { return enter(m) }, m.Waiters}
		}
	}
	deadline := func(m *Mutex) error { return m.AcquireDeadline(time.Now().Add(time.Minute)) }
	return []acquireEntry{
		{name: "P", bind: sem(func(s *Semaphore) error { s.P(); return nil })},
		{name: "Acquire", mutex: true, bind: mutex(func(m *Mutex) error { m.Acquire(); return nil })},
		{name: "AlertP", alertable: true, bind: sem((*Semaphore).AlertP)},
		{name: "AcquireDeadline", alertable: true, mutex: true, bind: mutex(deadline)},
		{name: "AcquireDeadline/checking", alertable: true, mutex: true, checking: true, bind: mutex(deadline)},
	}
}

// gateColumns picks the acquisition and release counters of the entry's
// stats columns: fast, spin, nub, backout, park, then release fast, nub
// and hand-off.
func gateColumns(s Stats, mutex bool) [8]uint64 {
	if mutex {
		return [8]uint64{s.AcquireFast, s.AcquireSpin, s.AcquireNub, s.AcquireBackout, s.AcquirePark,
			s.ReleaseFast, s.ReleaseNub, s.ReleaseHandoff}
	}
	return [8]uint64{s.PFast, s.PSpin, s.PNub, s.PBackout, s.PPark, s.VFast, s.VNub, s.VHandoff}
}

// TestAcquireLoopExits drives every caller of the gate's one acquisition
// loop — P, Acquire, AlertP and AcquireDeadline — through each exit of
// the loop while the test goroutine holds the gate: a park ended by an
// ordinary wake, a park ended by a direct hand-off, and, for the alertable
// callers, a park ended by Alert and an alert already pending at entry.
// Every caller enters the Nub exactly once and never backs out; the
// release columns tell the exits apart. The checking-mode AcquireDeadline
// row pins the hand-off of a tracked mutex to an alertable waiter: the
// recipient is the holder, so its Release must not panic.
func TestAcquireLoopExits(t *testing.T) {
	exits := []struct {
		name           string
		mode           HandoffMode
		alert, pending bool // Alert the parked waiter; alert it before entry
		// park, relNub, relHandoff are the expected park, release-Nub
		// and release hand-off counts.
		park, relNub, relHandoff uint64
	}{
		{name: "park-wake", mode: HandoffOff, park: 1, relNub: 1},
		{name: "park-handoff", mode: HandoffAlways, park: 1, relHandoff: 1},
		{name: "park-alert", mode: HandoffOff, alert: true, park: 1},
		{name: "pending-alert", mode: HandoffOff, pending: true},
	}
	for _, e := range acquireEntries() {
		for _, x := range exits {
			if (x.alert || x.pending) && !e.alertable {
				continue
			}
			t.Run(e.name+"/"+x.name, func(t *testing.T) {
				withHandoffMode(t, x.mode)
				if e.checking {
					prev := SetChecking(true)
					t.Cleanup(func() { SetChecking(prev) })
					defer Detach() // the holding test goroutine was adopted
				}
				g := e.bind()
				g.hold()
				var err error
				var relPanic any
				s := statsDelta(t, func() {
					th := Fork(func() {
						if x.pending {
							Alert(Self())
						}
						if err = g.enter(); err == nil {
							defer func() { relPanic = recover() }()
							g.release()
						}
					})
					if !x.pending {
						for g.waiters() == 0 {
							time.Sleep(50 * time.Microsecond)
						}
					}
					switch {
					case x.alert:
						Alert(th)
					case !x.pending:
						g.release()
					}
					waitDone(t, th.done, e.name)
					if err != nil {
						g.release() // the holder's turn: the waiter left empty-handed
					}
				})
				want := error(nil)
				if x.alert || x.pending {
					want = Alerted
				}
				if err != want {
					t.Fatalf("%s returned %v, want %v", e.name, err, want)
				}
				if relPanic != nil {
					t.Fatalf("Release after %s panicked: %v", e.name, relPanic)
				}
				// Fast, spin, nub, backout, park; release fast, nub,
				// hand-off. Whichever side releases last finds the queue
				// empty.
				wantCols := [8]uint64{0, 0, 1, 0, x.park, 1, x.relNub, x.relHandoff}
				if got := gateColumns(s, e.mutex); got != wantCols {
					t.Fatalf("stats columns = %v, want %v", got, wantCols)
				}
			})
		}
	}
}
