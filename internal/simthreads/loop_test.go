package simthreads

import (
	"testing"

	"threads/internal/sim"
)

// scripted is a two-thread world whose scheduler advances turn whenever
// turn can run, and the other thread otherwise. The threads steer the
// interleaving by assigning turn from their own (serialized) code; a
// trigger, checked before every scheduling decision, hands the turn to
// the driver once in the middle of the waiter's operation. The Nub lock
// awaits instead of spinning, so a thread the script prefers never spins
// on a lock the other holds.
type scripted struct {
	w             *World
	k             *Kernel
	waiter, drive *sim.T
	turn          *sim.T
	trigger       func() bool
}

func newScripted(opts WorldOptions) *scripted {
	s := &scripted{}
	opts.NubAwait = true
	s.w, s.k = NewWorldOpts(sim.Config{Procs: 2, MaxSteps: 100_000, Choose: s.choose}, opts)
	return s
}

func (s *scripted) choose(_ *sim.T, cands []*sim.T) int {
	if s.trigger != nil && s.trigger() {
		s.turn, s.trigger = s.drive, nil
	}
	for i, t := range cands {
		if t == s.turn {
			return i
		}
	}
	return 0
}

// run spawns the waiter and the driver; the driver has the first turn.
func (s *scripted) run(t *testing.T, waiter, drive func(e *sim.Env)) {
	t.Helper()
	s.waiter = s.k.Spawn("waiter", waiter)
	s.drive = s.k.Spawn("driver", drive)
	s.turn = s.drive
	if err := s.k.Run(); err != nil {
		t.Fatal(err)
	}
}

// handOver gives the waiter the turn and yields, so it runs until it parks
// or returns before the driver's next step.
func (s *scripted) handOver(e *sim.Env) {
	s.turn = s.waiter
	e.Work(1)
}

// onQueue reports whether t sits on q (assertions only).
func onQueue(q *tqueue, t *sim.T) bool {
	for _, x := range q.items {
		if x == t {
			return true
		}
	}
	return false
}

// TestSimAcquireLoopExits drives Acquire, P and AlertP — all one
// acquireSlow — through every exit of the loop but the back-out (the
// explorer's sem, alert and mutex-handoff litmuses enumerate that one),
// with and without DirectHandoff. The driver holds the gate throughout,
// so an alerted exit must find it still held and the waiter gone from its
// queue; Acquire and P ignore alerts and end holding the gate.
func TestSimAcquireLoopExits(t *testing.T) {
	type op struct {
		name      string
		alertable bool
		// setup creates the gate and returns it with its hold, give and
		// waiter-side acquire (reporting alerted).
		setup func(w *World) (g *gate, take, give func(*sim.Env), acquire func(*sim.Env) bool)
	}
	mutex := func(w *World) (*gate, func(*sim.Env), func(*sim.Env), func(*sim.Env) bool) {
		m := w.NewMutex()
		return &m.g, m.Acquire, m.Release, func(e *sim.Env) bool { m.Acquire(e); return false }
	}
	sem := func(alertable bool) func(w *World) (*gate, func(*sim.Env), func(*sim.Env), func(*sim.Env) bool) {
		return func(w *World) (*gate, func(*sim.Env), func(*sim.Env), func(*sim.Env) bool) {
			s := w.NewSemaphore()
			acquire := func(e *sim.Env) bool { s.P(e); return false }
			if alertable {
				acquire = s.AlertP
			}
			return &s.g, s.P, s.V, acquire
		}
	}
	ops := []op{{"Acquire", false, mutex}, {"P", false, sem(false)}, {"AlertP", true, sem(true)}}
	exits := []string{"park-wake", "park-alert", "pending-alert"}
	for _, o := range ops {
		for _, handoff := range []bool{false, true} {
			for _, exit := range exits {
				name := o.name + "/" + exit
				if handoff {
					name += "/handoff"
				}
				t.Run(name, func(t *testing.T) {
					s := newScripted(WorldOptions{DirectHandoff: handoff})
					g, take, give, acquire := o.setup(s.w)
					alerts := exit != "park-wake"
					wantAlerted := o.alertable && alerts
					var alerted, checked bool
					s.run(t, func(e *sim.Env) {
						alerted = acquire(e)
						if alerted {
							// The gate is untouched: still held by the
							// driver, and the waiter is off its queue.
							checked = true
							if g.lockBit.Peek() != 1 || onQueue(&g.q, e.Self()) || g.qne.Peek() != 0 {
								t.Errorf("alerted exit touched the gate: lockBit %d, queued %v, qne %d",
									g.lockBit.Peek(), onQueue(&g.q, e.Self()), g.qne.Peek())
							}
						}
					}, func(e *sim.Env) {
						take(e)
						if exit == "pending-alert" {
							s.w.Alert(e, s.waiter)
						}
						s.handOver(e)
						if exit == "park-alert" {
							s.turn = e.Self()
							s.w.Alert(e, s.waiter)
							s.turn = s.waiter
						}
						give(e)
					})
					if alerted != wantAlerted {
						t.Fatalf("alerted = %v, want %v", alerted, wantAlerted)
					}
					if wantAlerted != checked {
						t.Fatal("alerted exit not inspected")
					}
					if got := s.w.AlertPending(s.waiter); got != (alerts && !o.alertable) {
						t.Errorf("alert pending at the end = %v; want it consumed only by AlertP", got)
					}
					// After the driver's give, the gate is free exactly when
					// the waiter left without it.
					if held := g.lockBit.Peek() != 0; held == wantAlerted {
						t.Errorf("lock bit held = %v after the run", held)
					}
					if len(g.q.items) != 0 || g.qne.Peek() != 0 {
						t.Errorf("queue left with %d threads, qne %d", len(g.q.items), g.qne.Peek())
					}
					wantPark := uint64(1)
					if exit == "pending-alert" && o.alertable {
						wantPark = 0
					}
					if s.w.Stats.AcquirePark != wantPark {
						t.Errorf("AcquirePark = %d, want %d", s.w.Stats.AcquirePark, wantPark)
					}
					wantHandoff := uint64(0)
					if handoff && !wantAlerted {
						wantHandoff = 1
					}
					if s.w.Stats.ReleaseHandoff != wantHandoff {
						t.Errorf("ReleaseHandoff = %d, want %d", s.w.Stats.ReleaseHandoff, wantHandoff)
					}
				})
			}
		}
	}
}

// TestSimBlockExits drives Wait and AlertWait — one block — through every
// exit of block, and checks the commitment accounting on each: committed
// ends at 0 and the waiter ends off c.q. The driver always ends with a
// Signal; Wait ignores alerts, so that Signal ends its alerted rows and
// the alert stays pending.
func TestSimBlockExits(t *testing.T) {
	type exit struct {
		name string
		// alert: the driver alerts the waiter — before its wait if
		// pending, else once it is queued, and with race the Signal pops
		// it before it can leave c itself. elided: the Signal lands
		// between Wait's release of m and Block.
		alert, pending, race, elided bool
	}
	exits := []exit{
		{name: "elided", elided: true},
		{name: "pending-alert", pending: true, alert: true},
		{name: "signal-wake"},
		{name: "alert-queued", alert: true},
		{name: "alert-races-signal-pop", alert: true, race: true},
	}
	for _, alertable := range []bool{false, true} {
		for _, x := range exits {
			name := "Wait/" + x.name
			if alertable {
				name = "AlertWait/" + x.name
			}
			t.Run(name, func(t *testing.T) {
				s := newScripted(WorldOptions{})
				m := s.w.NewMutex()
				c := s.w.NewCondition()
				var alerted bool
				waiter := func(e *sim.Env) {
					m.Acquire(e)
					if alertable {
						alerted = c.AlertWait(e, m)
					} else {
						c.Wait(e, m)
					}
					m.Release(e)
				}
				if x.elided {
					// Signal between Wait's release of m and Block.
					s.trigger = func() bool { return c.committed.Peek() == 1 && !m.Held() }
				}
				s.run(t, waiter, func(e *sim.Env) {
					if x.pending {
						s.w.Alert(e, s.waiter)
					}
					s.handOver(e)
					if x.alert && !x.pending {
						s.turn = e.Self()
						s.w.Alert(e, s.waiter)
						if !x.race {
							s.turn = s.waiter // the claimed waiter leaves c first
						}
					}
					c.Signal(e)
				})
				wantAlerted := alertable && x.alert
				if alerted != wantAlerted {
					t.Fatalf("alerted = %v, want %v", alerted, wantAlerted)
				}
				if got := c.committed.Peek(); got != 0 {
					t.Errorf("committed = %d at the end, want 0", int64(got))
				}
				if onQueue(&c.q, s.waiter) {
					t.Error("waiter left on c.q")
				}
				if got := s.w.AlertPending(s.waiter); got != (x.alert && !alertable) {
					t.Errorf("alert pending at the end = %v; want it consumed only by AlertWait", got)
				}
				wantElided := uint64(0)
				if x.elided {
					wantElided = 1
				}
				if s.w.Stats.WaitElided != wantElided {
					t.Errorf("WaitElided = %d, want %d", s.w.Stats.WaitElided, wantElided)
				}
				wantWoke := uint64(0)
				if !x.elided && !wantAlerted {
					wantWoke = 1
				}
				if s.w.Stats.SignalWoke != wantWoke {
					t.Errorf("SignalWoke = %d, want %d", s.w.Stats.SignalWoke, wantWoke)
				}
			})
		}
	}
}
