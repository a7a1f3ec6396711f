package trace

import (
	"testing"
	"time"

	"threads/internal/baselines"
	"threads/internal/core"
	"threads/internal/workload"
)

// Runtime conformance for direct hand-off (the fairness fix layered on the
// paper's wake-and-retry Release): under HandoffAlways every contended
// Release, V and Signal takes the transfer path, and the recorded stream —
// the releaser's event stamped at its first CAS, the recipient's at the
// second — must replay through the full specification state machine
// exactly like the unmodified protocol. A hand-off whose stamps did not
// certify against concurrent transitions surfaces here as an Acquire of a
// held mutex, a P of an unavailable semaphore, or a Resume with no
// justifying Signal.

// withHandoffAlways pins the hand-off policy for one test.
func withHandoffAlways(t *testing.T) {
	t.Helper()
	prev := core.SetHandoffMode(core.HandoffAlways)
	t.Cleanup(func() { core.SetHandoffMode(prev) })
}

func TestRuntimeConformanceHandoffMutexContention(t *testing.T) {
	withHandoffAlways(t)
	withRuntimeTracing(t, 1<<16, func() {
		ck := New()
		workload.MutexContention(baselines.NewThreadsMonitor(), workload.ContentionConfig{
			Threads: 8, Iters: 2000,
		})
		n := collectRuntime(t, ck)
		if n < 8*2000*2 {
			t.Fatalf("replayed %d events, want at least %d", n, 8*2000*2)
		}
	})
}

// TestRuntimeConformanceHandoffProducerConsumer is the Wait/Signal-heavy
// case: signallers hold the mutex, so Signals morph waiters onto the mutex
// queue and Releases hand the mutex to them directly — the morphed
// waiter's Resume is emitted with the hand-off's certified stamp, which
// the checker's thin-air rule (some Signal after this thread's Enqueue)
// validates against the Signal stamped before the morph.
func TestRuntimeConformanceHandoffProducerConsumer(t *testing.T) {
	withHandoffAlways(t)
	withRuntimeTracing(t, 1<<16, func() {
		ck := New()
		total := 0
		for episode := 0; episode < 3; episode++ {
			res := workload.ProducerConsumer(baselines.NewThreadsMonitor(), workload.PCConfig{
				Producers: 3, Consumers: 3, ItemsPerProducer: 500, Capacity: 4,
			})
			if res.Items != 1500 {
				t.Fatalf("episode %d: items = %d, want 1500", episode, res.Items)
			}
			total += collectRuntime(t, ck)
		}
		if total == 0 {
			t.Fatal("no events recorded")
		}
		t.Logf("replayed %d events over 3 episodes", total)
	})
}

// TestRuntimeConformanceHandoffAlertStorm mixes transfers with the alert
// claim races: a waiter Alert claims must be skipped by the hand-off pop,
// and an AlertP that receives a transfer must emit its Return with the
// certified stamp.
func TestRuntimeConformanceHandoffAlertStorm(t *testing.T) {
	withHandoffAlways(t)
	withRuntimeTracing(t, 1<<16, func() {
		ck := New()
		res := workload.AlertStorm(workload.AlertStormConfig{
			Victims: 4, Stormers: 2, Episodes: 50,
		})
		if res.Raised != 4*50 {
			t.Fatalf("raised = %d, want %d", res.Raised, 4*50)
		}
		if n := collectRuntime(t, ck); n == 0 {
			t.Fatal("no events recorded")
		}
	})
}

// TestRuntimeConformanceHandoffReadersWriters adds Broadcast traffic,
// which never morphs or hands off per se but interleaves with Releases
// that do.
func TestRuntimeConformanceHandoffReadersWriters(t *testing.T) {
	withHandoffAlways(t)
	withRuntimeTracing(t, 1<<16, func() {
		ck := New()
		workload.ReadersWriters(baselines.NewThreadsMonitor(), workload.RWConfig{
			Readers: 4, Writers: 2, OpsPerThread: 300,
		})
		if n := collectRuntime(t, ck); n == 0 {
			t.Fatal("no events recorded")
		}
	})
}

// TestRuntimeConformanceSignalAfterPop is the traced counterpart of core's
// TestSignalAfterPopTakesFastPath: with the test holding the mutex, the
// first of 1+k Signals pops the one waiter (morphing it under
// HandoffAdaptive, waking it under HandoffOff) and the other k find nobody
// committed and stay in user code, emitting nothing. The replay checks
// that those silent Signals are admitted (c' = c) and that the popped
// waiter's Resume is still justified by the one Signal that entered the
// Nub.
func TestRuntimeConformanceSignalAfterPop(t *testing.T) {
	const k = 5
	for name, mode := range map[string]core.HandoffMode{"HandoffAdaptive": core.HandoffAdaptive, "HandoffOff": core.HandoffOff} {
		t.Run(name, func(t *testing.T) {
			prevMode := core.SetHandoffMode(mode)
			t.Cleanup(func() { core.SetHandoffMode(prevMode) })
			defer core.EnableStats(core.EnableStats(true))
			withRuntimeTracing(t, 1<<12, func() {
				defer core.Detach() // tracing adopts the test goroutine
				var (
					m     core.Mutex
					c     core.Condition
					ready bool
				)
				th := core.Fork(func() {
					m.Acquire()
					for !ready {
						c.Wait(&m)
					}
					m.Release()
				})
				for c.Waiters() == 0 {
					time.Sleep(50 * time.Microsecond)
				}
				before := core.SnapshotStats()
				m.Acquire()
				ready = true
				for j := 0; j <= k; j++ {
					c.Signal()
				}
				m.Release()
				core.Join(th)
				after := core.SnapshotStats()
				if nub, fast := after.SignalNub-before.SignalNub, after.SignalFast-before.SignalFast; nub != 1 || fast != k {
					t.Fatalf("%d Signals: nub=%d fast=%d, want nub=1 fast=%d", k+1, nub, fast, k)
				}
				if n := collectRuntime(t, New()); n == 0 {
					t.Fatal("no events recorded")
				}
			})
		})
	}
}
