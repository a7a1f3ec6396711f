package trace

import (
	"fmt"
	"runtime"
	"testing"

	"threads/internal/core"
)

// TestRuntimeConformanceCheckingHolder is the traced counterpart of core's
// TestCheckingModeWaitHandoff: checking mode on, over a priority-
// inheritance mutex and a plain one, producer-consumer through Wait/Signal
// and AlertWait, under HandoffAlways and HandoffOff. Checking asserts the
// one holder record at every release and the traced acquisitions (the
// certified hand-off stamps among them) replay through the specification
// state machine, boosts and restores included.
func TestRuntimeConformanceCheckingHolder(t *testing.T) {
	for name, mode := range map[string]core.HandoffMode{"HandoffAlways": core.HandoffAlways, "HandoffOff": core.HandoffOff} {
		for _, alertable := range []bool{false, true} {
			for _, pi := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/alertable=%v/pi=%v", name, alertable, pi), func(t *testing.T) {
					prevMode := core.SetHandoffMode(mode)
					t.Cleanup(func() { core.SetHandoffMode(prevMode) })
					prevCheck := core.SetChecking(true)
					t.Cleanup(func() { core.SetChecking(prevCheck) })
					withRuntimeTracing(t, 1<<16, func() {
						if got := checkedProducerConsumer(pi, alertable, 2, 2, 300); got != 600 {
							t.Fatalf("consumed %d items, want 600", got)
						}
						if n := collectRuntime(t, New()); n == 0 {
							t.Fatal("no events recorded")
						}
					})
				})
			}
		}
	}
}

// checkedProducerConsumer passes items through a two-slot buffer guarded
// by one mutex and returns how many were consumed. Threads run at mixed
// priorities so a PI mutex has donations to make and remove; producers
// yield while holding the mutex so consumers arrive at a held mutex and
// the hand-off paths run on a single processor too.
func checkedProducerConsumer(pi, alertable bool, producers, consumers, perProducer int) int {
	var (
		m                 core.Mutex
		nonEmpty, nonFull core.Condition
		buf, done         int
	)
	m.SetPriorityInheritance(pi)
	defer m.SetPriorityInheritance(false)
	wait := func(c *core.Condition) {
		if !alertable {
			c.Wait(&m)
			return
		}
		if err := c.AlertWait(&m); err != nil {
			panic(err) // no thread is alerted
		}
	}
	total := producers * perProducer
	var ths []*core.Thread
	for p := 0; p < producers; p++ {
		ths = append(ths, core.ForkPri(p%3, func() {
			for i := 0; i < perProducer; i++ {
				m.Acquire()
				for buf == 2 {
					wait(&nonFull)
				}
				buf++
				if i%64 == 0 {
					runtime.Gosched()
				}
				m.Release()
				nonEmpty.Signal()
			}
		}))
	}
	for c := 0; c < consumers; c++ {
		ths = append(ths, core.ForkPri(2-c%3, func() {
			for {
				m.Acquire()
				for buf == 0 && done < total {
					wait(&nonEmpty)
				}
				if done == total {
					m.Release()
					nonEmpty.Broadcast()
					return
				}
				buf--
				done++
				m.Release()
				nonFull.Signal()
			}
		}))
	}
	for _, th := range ths {
		core.Join(th)
	}
	return done
}
