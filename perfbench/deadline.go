package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"threads/derived"
	"threads/internal/core"
)

// The deadline workload. A fast client issues deadline operations that
// are almost always satisfied — Mutex.AcquireDeadline on a lightly
// contended mutex and Ring.PopDeadline on a reply ring a server thread
// keeps non-empty — each with a far deadline. A slow client alternates,
// on a seeded schedule, between Condition.AlertWaitDeadline waits that
// must expire (deadlines of 50–500 µs) and far-deadline waits that the
// fast client ends with Alert.

const (
	dlFar         = time.Minute // never reached: a far-deadline op that expires is an error
	dlMinWait     = 50 * time.Microsecond
	dlMaxWait     = 500 * time.Microsecond
	dlAlertPct    = 50 // slow-client waits that are ended by Alert
	dlRingCap     = 8
	dlServerEvery = 8 // the server takes the fast client's mutex once per this many pushes
	dlTapeLen     = 1 << 12
	dlWarmupOps   = 20_000 // fast-client ops
	dlSeqBits     = 48
	dlWaitOp      = 3 << dlSeqBits // op-id space of slow-client waits
)

type dlItem struct{ seq, val uint64 }

const dlEnd = ^uint64(0)

// dlSlot is one entry of the slow client's schedule: a wait ended by
// Alert, or one that must expire after d.
type dlSlot struct {
	alert bool
	d     time.Duration
}

type deadlineWorkload struct {
	mu                    core.Mutex            // the fast client's AcquireDeadline target
	reply                 *derived.Ring[dlItem] // server → fast client
	sm                    core.Mutex            // the slow client's wait mutex
	sc                    core.Condition        // never signalled: the slow client's waits end by deadline or Alert
	vals                  []uint64              // server values, checked by the fast client
	sched                 []dlSlot              // the slow client's schedule
	pushed, popped, waits uint64                // over all phases
}

func newDeadline(seed int64, _ int) workload {
	w := &deadlineWorkload{reply: derived.NewRing[dlItem](dlRingCap)}
	r := rngFor(seed, 200)
	w.vals = make([]uint64, dlTapeLen)
	for i := range w.vals {
		w.vals[i] = r.Uint64()
	}
	s := rngFor(seed, 201)
	w.sched = make([]dlSlot, dlTapeLen)
	for i := range w.sched {
		w.sched[i] = dlSlot{
			alert: s.Intn(100) < dlAlertPct,
			d:     dlMinWait + time.Duration(s.Int63n(int64(dlMaxWait-dlMinWait))),
		}
	}
	return w
}

func (w *deadlineWorkload) warmup() budget { return budget{n: dlWarmupOps} }
func (w *deadlineWorkload) traceN() int    { return 64 }

// dlCheckExpiry judges one expiring wait: it must end with
// DeadlineExceeded, and not before its deadline.
func dlCheckExpiry(err error, late time.Duration) error {
	switch {
	case errors.Is(err, core.Alerted):
		return errors.New("deadline: expiring wait returned Alerted, but no Alert was issued")
	case err != core.DeadlineExceeded:
		return fmt.Errorf("deadline: expiring wait returned %v", err)
	case late < 0:
		return fmt.Errorf("deadline: DeadlineExceeded %v before the deadline", -late)
	}
	return nil
}

// dlCheckFar judges one far-deadline op: it must be satisfied (nil), or,
// for an alert wait, end with Alerted. DeadlineExceeded is always wrong.
func dlCheckFar(err error, alertWait bool) error {
	switch {
	case err == nil && !alertWait:
		return nil
	case errors.Is(err, core.Alerted) && alertWait:
		return nil
	}
	return fmt.Errorf("deadline: far-deadline op (alert wait %v) returned %v", alertWait, err)
}

// dlCheckEnd judges the end of a phase: every Alerted return matched by an
// issued Alert, and no alert left pending on either client.
func dlCheckEnd(issued, alerted int64, staleFast, staleSlow bool) []string {
	var errs []string
	if issued != alerted {
		errs = append(errs, fmt.Sprintf("deadline: %d Alerts issued, %d Alerted returns", issued, alerted))
	}
	if staleFast || staleSlow {
		errs = append(errs, fmt.Sprintf("deadline: stale alert at the end (fast %v, slow %v)", staleFast, staleSlow))
	}
	return errs
}

func (w *deadlineWorkload) measure(b budget, tr *tracer) phaseResult {
	ph := newPhase(b)
	traced := tr != nil
	n := uint64(w.traceN())
	var (
		req, alertAt atomic.Int64 // slow → fast: wait id+1 to alert; fast → slow: when it alerted
		slowDone     atomic.Bool
		stop         atomic.Bool // ends the slow client and the server
	)
	type out struct {
		ops, failed, acquires, selfCalls int64
		errs                             []string
	}
	var fast, slow, server out
	var fastMeter, slowMeter meter
	var issued, alerted int64
	var staleFast, staleSlow bool
	// Slow-client waits take 50 µs at the least: size for that rate.
	waits := int(b.d/dlMinWait) + 1024
	if b.n > 0 {
		waits = int(b.n)
	}
	late := newSamples(waits)
	alertLat := newSamples(waits)
	note := func(o *out, err error) {
		if err != nil {
			o.failed++
			if len(o.errs) < 5 {
				o.errs = append(o.errs, err.Error())
			}
		}
	}

	serverT := core.Fork(func() {
		for i := uint64(0); ; i++ {
			if stop.Load() {
				w.reply.Push(dlItem{seq: dlEnd})
				server.acquires++
				return
			}
			seq := w.pushed
			w.reply.Push(dlItem{seq: seq, val: w.vals[seq%dlTapeLen]})
			w.pushed++
			server.acquires++
			if i%dlServerEvery == 0 {
				w.mu.Acquire()
				w.mu.Release()
				server.acquires++
			}
		}
	})

	slowRec := tr.recorder()
	slowT := core.Fork(func() {
		<-ph.start
		for !stop.Load() {
			k := w.waits
			w.waits++
			s := w.sched[k%dlTapeLen]
			id := dlWaitOp | k
			t0 := nowNs()
			w.sm.Acquire()
			slow.acquires++
			var err error
			if s.alert {
				req.Store(int64(k) + 1)
				for {
					err = w.sc.AlertWaitDeadline(&w.sm, time.Now().Add(dlFar))
					if err != nil {
						break
					}
				}
				if errors.Is(err, core.Alerted) {
					alerted++
					alertLat.add(nowNs() - alertAt.Load())
				}
				note(&slow, dlCheckFar(err, true))
			} else {
				dl := time.Now().Add(s.d)
				for {
					err = w.sc.AlertWaitDeadline(&w.sm, dl)
					if err != nil {
						break
					}
				}
				lateBy := time.Since(dl)
				if e := dlCheckExpiry(err, lateBy); e != nil {
					note(&slow, e)
				} else {
					late.add(int64(lateBy))
					slowMeter.n.Store(int64(len(late.v)))
				}
			}
			t1 := nowNs()
			w.sm.Release()
			if traced {
				slowRec.add(spAlertWaitDeadline, id, t0, t1)
				slowRec.add(spDeadlineWait, id, t0, nowNs())
			}
			slow.ops++
		}
		slowDone.Store(true)
		staleSlow = core.TestAlert()
		slow.selfCalls++
	})

	fastRec := tr.recorder()
	// serve alerts the slow client when it has asked for one since the
	// last call.
	var served int64
	serve := func() {
		r := req.Load()
		if r == served {
			return
		}
		served = r
		t0 := nowNs()
		alertAt.Store(t0)
		core.Alert(slowT)
		issued++
		if traced {
			fastRec.add(spAlert, dlWaitOp|uint64(r-1), t0, nowNs())
		}
	}
	fastT := core.Fork(func() {
		<-ph.start
		check := func(it dlItem, err error) error {
			if err != nil {
				return dlCheckFar(err, false)
			}
			seq := w.popped
			w.popped++
			if it.seq != seq || it.val != w.vals[seq%dlTapeLen] {
				return fmt.Errorf("deadline: reply %d = (%d, %#x), want (%d, %#x)", seq, it.seq, it.val, seq, w.vals[seq%dlTapeLen])
			}
			return nil
		}
		for i := uint64(0); !ph.done(fast.ops); i++ {
			serve()
			// Ops alternate kinds, so sample them in pairs: both ops of
			// every n-th pair, one op in n overall.
			sampled := traced && (i/2)%n == 0
			var t0, t1 int64
			if sampled {
				t0 = nowNs()
			}
			var err error
			kind := spAcquireDeadline
			if i%2 == 0 {
				err = w.mu.AcquireDeadline(time.Now().Add(dlFar))
				if sampled {
					t1 = nowNs()
				}
				if err == nil {
					w.mu.Release()
				}
				err = dlCheckFar(err, false)
			} else {
				kind = spPopDeadline
				it, perr := w.reply.PopDeadline(time.Now().Add(dlFar))
				if sampled {
					t1 = nowNs()
				}
				err = check(it, perr)
			}
			fast.acquires++
			if sampled {
				t2 := nowNs()
				fastRec.add(kind, i, t0, t1)
				if kind == spAcquireDeadline {
					fastRec.add(spRelease, i, t1, t2)
				}
				fastRec.add(spDeadlineOp, i, t0, t2)
			}
			if err != nil {
				note(&fast, err)
				continue
			}
			fast.ops++
			fastMeter.ops.Store(fast.ops)
		}
		// Shut down: the slow client may be waiting for one more Alert;
		// then drain the ring up to the server's end marker.
		stop.Store(true)
		for !slowDone.Load() {
			serve()
		}
		for {
			it := w.reply.Pop()
			fast.acquires++
			if it.seq == dlEnd {
				break
			}
			note(&fast, check(it, nil))
		}
		staleFast = core.TestAlert()
		fast.selfCalls++
	})

	elapsed, marks := ph.run(b, []*meter{&fastMeter, &slowMeter}, func() {
		core.Join(fastT)
		core.Join(slowT)
		core.Join(serverT)
	})
	quiet := quietSlices(marks)
	res := phaseResult{
		ops:       fast.ops,
		elapsed:   elapsed,
		rates:     kept(sliceRates(marks), quiet),
		keep:      func(i int) bool { return quiet[i] },
		lat:       sliced{marks, [][]int64{nil, late.v}},
		allocs:    ph.allocs,
		alertLat:  alertLat.v,
		attempted: fast.ops + fast.failed + slow.ops,
		failed:    fast.failed + slow.failed,
		acquires:  fast.acquires + slow.acquires + server.acquires,
		selfCalls: fast.selfCalls + slow.selfCalls,
	}
	end := dlCheckEnd(issued, alerted, staleFast, staleSlow)
	res.failed += int64(len(end))
	res.errs = append(append(append(res.errs, fast.errs...), slow.errs...), end...)
	return res
}

// verify has nothing left to check: every deadline outcome is judged as
// it happens, and the alert balance at the end of each phase.
func (w *deadlineWorkload) verify() []string { return nil }
