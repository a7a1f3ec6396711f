package trace

import (
	"testing"
	"time"

	"threads/internal/core"
)

// TestRuntimeConformanceAcquireLoop is the traced counterpart of core's
// TestAcquireLoopExits: P, Acquire, AlertP and AcquireDeadline (plain and
// in checking mode) each block on a held gate and leave the gate's one
// acquisition loop by every exit — woken, handed the gate, alerted while
// parked, alerted before entry — and the trace of each run replays through
// the specification state machine, hand-off stamps and alert deletions
// included.
func TestRuntimeConformanceAcquireLoop(t *testing.T) {
	type gateOps struct {
		hold, release func()
		enter         func() error
		waiters       func() int
	}
	deadline := func(m *core.Mutex) error { return m.AcquireDeadline(time.Now().Add(time.Minute)) }
	entries := []struct {
		name                string
		alertable, checking bool
		bind                func() gateOps
	}{
		{"P", false, false, func() gateOps {
			s := new(core.Semaphore)
			return gateOps{s.P, s.V, func() error { s.P(); return nil }, s.Waiters}
		}},
		{"Acquire", false, false, func() gateOps {
			m := new(core.Mutex)
			return gateOps{m.Acquire, m.Release, func() error { m.Acquire(); return nil }, m.Waiters}
		}},
		{"AlertP", true, false, func() gateOps {
			s := new(core.Semaphore)
			return gateOps{s.P, s.V, s.AlertP, s.Waiters}
		}},
		{"AcquireDeadline", true, false, func() gateOps {
			m := new(core.Mutex)
			return gateOps{m.Acquire, m.Release, func() error { return deadline(m) }, m.Waiters}
		}},
		{"AcquireDeadline/checking", true, true, func() gateOps {
			m := new(core.Mutex)
			return gateOps{m.Acquire, m.Release, func() error { return deadline(m) }, m.Waiters}
		}},
	}
	exits := []struct {
		name           string
		mode           core.HandoffMode
		alert, pending bool
	}{
		{"park-wake", core.HandoffOff, false, false},
		{"park-handoff", core.HandoffAlways, false, false},
		{"park-alert", core.HandoffOff, true, false},
		{"pending-alert", core.HandoffOff, false, true},
	}
	for _, e := range entries {
		for _, x := range exits {
			if (x.alert || x.pending) && !e.alertable {
				continue
			}
			t.Run(e.name+"/"+x.name, func(t *testing.T) {
				prevMode := core.SetHandoffMode(x.mode)
				t.Cleanup(func() { core.SetHandoffMode(prevMode) })
				if e.checking {
					prev := core.SetChecking(true)
					t.Cleanup(func() { core.SetChecking(prev) })
				}
				withRuntimeTracing(t, 1<<12, func() {
					defer core.Detach() // tracing adopts the test goroutine
					g := e.bind()
					g.hold()
					var err error
					th := core.Fork(func() {
						if x.pending {
							core.Alert(core.Self())
						}
						if err = g.enter(); err == nil {
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
						core.Alert(th)
					case !x.pending:
						g.release()
					}
					core.Join(th)
					if err != nil {
						g.release()
					}
					want := error(nil)
					if x.alert || x.pending {
						want = core.Alerted
					}
					if err != want {
						t.Fatalf("%s returned %v, want %v", e.name, err, want)
					}
					if n := collectRuntime(t, New()); n == 0 {
						t.Fatal("no events recorded")
					}
				})
			})
		}
	}
}
