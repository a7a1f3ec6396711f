package core

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Stats is a snapshot of the package's contention counters. The paper
// reports that the underlying implementation was reworked "to make it easy
// to collect statistics on contention" without any specification change;
// these counters are that facility. They also drive experiments E2 and E3:
// the fast-path hit rate and the multi-unblock behavior of Signal.
type Stats struct {
	AcquireFast    uint64 // Acquire satisfied by the inline test-and-set
	AcquireSpin    uint64 // Acquire satisfied during the bounded active spin
	AcquireNub     uint64 // Acquire entered the Nub subroutine
	AcquireBackout uint64 // Nub enqueue backed out (lock bit observed clear)
	AcquirePark    uint64 // Acquire descheduled the caller
	ReleaseFast    uint64 // Release found the queue empty
	ReleaseNub     uint64 // Release entered the Nub subroutine
	ReleaseHandoff uint64 // Release handed the mutex directly to a waiter

	PFast    uint64 // P satisfied inline
	PSpin    uint64 // P satisfied during the bounded active spin
	PNub     uint64 // P entered the Nub
	PBackout uint64 // Nub enqueue backed out (lock bit observed clear)
	PPark    uint64 // P descheduled the caller
	VFast    uint64 // V found the queue empty
	VNub     uint64 // V entered the Nub
	VHandoff uint64 // V handed the semaphore directly to a waiter

	WaitCount   uint64 // Wait calls
	WaitSpin    uint64 // Block satisfied during the bounded active spin
	WaitElided  uint64 // Block returned without descheduling (eventcount advanced)
	WaitPark    uint64 // Block descheduled the caller
	SignalFast  uint64 // Signal with no committed, un-popped waiters: no Nub call
	SignalNub   uint64 // Signal entered the Nub
	SignalWoke  uint64 // Signal dequeued and woke a thread
	SignalMorph uint64 // Signal morphed a waiter onto the mutex queue instead of waking it
	SignalRepop uint64 // Signal re-popped after losing a claim race to Alert
	BcastFast   uint64 // Broadcast with no committed, un-popped waiters
	BcastNub    uint64 // Broadcast entered the Nub
	BcastWoke   uint64 // threads woken by Broadcast

	Alerts        uint64 // Alert calls
	AlertWakes    uint64 // Alert woke a blocked alertable waiter
	AlertedWait   uint64 // AlertWait returned Alerted
	AlertedP      uint64 // AlertP returned Alerted
	TestAlertTrue uint64 // TestAlert returned true

	TimerArm    uint64 // deadline waits that armed a timer-wheel entry
	TimerFire   uint64 // wheel entries that fired (delivered an Alert)
	TimerCancel uint64 // wheel entries cancelled before firing
	TimerDrain  uint64 // stale timer alerts drained after a satisfied wait

	PriBoost   uint64 // effective-priority raises (inheritance donations, SetPriority up)
	PriRestore uint64 // effective-priority drops (donation removed, SetPriority down)
}

// statID names one counter; it indexes into a shard's counter block.
type statID int

const (
	statAcquireFast statID = iota
	statAcquireSpin
	statAcquireNub
	statAcquireBackout
	statAcquirePark
	statReleaseFast
	statReleaseNub
	statReleaseHandoff
	statPFast
	statPSpin
	statPNub
	statPBackout
	statPPark
	statVFast
	statVNub
	statVHandoff
	statWaitCount
	statWaitSpin
	statWaitElided
	statWaitPark
	statSignalFast
	statSignalNub
	statSignalWoke
	statSignalMorph
	statSignalRepop
	statBcastFast
	statBcastNub
	statBcastWoke
	statAlerts
	statAlertWakes
	statAlertedWait
	statAlertedP
	statTestAlertTrue
	statTimerArm
	statTimerFire
	statTimerCancel
	statTimerDrain
	statPriBoost
	statPriRestore
	numStats
)

const cacheLineSize = 64

// statShard is one padded block of counters. Its size is rounded up to a
// whole number of cache lines so counters in different shards never share
// a line: with a single global block, enabling statistics made every fast
// path bounce the same lines between processors.
type statShard struct {
	c [numStats]atomic.Uint64
	_ [(cacheLineSize - (numStats*8)%cacheLineSize) % cacheLineSize]byte
}

// statShards holds one counter block per processor's worth of parallelism.
// Sized (power of two) from GOMAXPROCS at init; a thread-identity hash
// picks the shard, so concurrent updaters usually touch distinct lines.
var (
	statShards    []statShard
	statShardMask uintptr
)

func init() {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 64 {
		n <<= 1
	}
	statShards = make([]statShard, n)
	statShardMask = uintptr(n - 1)
}

// statsEnabled gates all counter updates; when false the counters cost one
// predictable branch on the fast paths.
var statsEnabled atomic.Bool

// EnableStats turns contention statistics on or off and returns the
// previous setting.
func EnableStats(on bool) bool { return statsEnabled.Swap(on) }

// StatsEnabled reports whether statistics are being collected.
func StatsEnabled() bool { return statsEnabled.Load() }

// statShardIdx hashes the calling thread's identity to a shard index. The
// hot paths deliberately never compute SELF (recovering the goroutine id
// costs a runtime.Stack call), so the hash input is the next best
// per-thread value: the address of a stack variable. Goroutine stacks are
// distinct multi-kilobyte allocations, so folding the sub-page bits away
// spreads goroutines across shards while staying stable within one
// goroutine. Only the numeric value of the pointer is used.
func statShardIdx() uintptr {
	var marker byte
	p := uintptr(unsafe.Pointer(&marker))
	return ((p >> 10) ^ (p >> 16)) & statShardMask
}

func statAdd(id statID, n uint64) {
	if statsEnabled.Load() {
		statShards[statShardIdx()].c[id].Add(n)
	}
}

func statInc(id statID) { statAdd(id, 1) }

// SnapshotStats returns the current counter values, aggregated over all
// shards.
//
// The snapshot is atomic per counter but NOT across counters: each shard
// cell is read with an individual atomic load while updaters may be
// running, so a snapshot taken concurrently with work in flight can
// observe one side of a pairing without the other. Cross-counter
// invariants — SignalWoke <= SignalNub, AcquireFast+AcquireSpin+
// AcquireNub equal to the number of Acquire calls, AlertedWait+AlertedP
// <= AlertWakes+TestAlertTrue-adjusted alert deliveries, and so on — are
// therefore only meaningful when the snapshot is taken at quiescence
// (every worker joined, no call in flight). Tests and experiments that
// assert relationships between counters must quiesce first; a snapshot
// taken mid-run is suitable only for monotone progress monitoring of a
// single counter.
func SnapshotStats() Stats {
	var c [numStats]uint64
	for i := range statShards {
		for id := statID(0); id < numStats; id++ {
			c[id] += statShards[i].c[id].Load()
		}
	}
	return Stats{
		AcquireFast:    c[statAcquireFast],
		AcquireSpin:    c[statAcquireSpin],
		AcquireNub:     c[statAcquireNub],
		AcquireBackout: c[statAcquireBackout],
		AcquirePark:    c[statAcquirePark],
		ReleaseFast:    c[statReleaseFast],
		ReleaseNub:     c[statReleaseNub],
		ReleaseHandoff: c[statReleaseHandoff],
		PFast:          c[statPFast],
		PSpin:          c[statPSpin],
		PNub:           c[statPNub],
		PBackout:       c[statPBackout],
		PPark:          c[statPPark],
		VFast:          c[statVFast],
		VNub:           c[statVNub],
		VHandoff:       c[statVHandoff],
		WaitCount:      c[statWaitCount],
		WaitSpin:       c[statWaitSpin],
		WaitElided:     c[statWaitElided],
		WaitPark:       c[statWaitPark],
		SignalFast:     c[statSignalFast],
		SignalNub:      c[statSignalNub],
		SignalWoke:     c[statSignalWoke],
		SignalMorph:    c[statSignalMorph],
		SignalRepop:    c[statSignalRepop],
		BcastFast:      c[statBcastFast],
		BcastNub:       c[statBcastNub],
		BcastWoke:      c[statBcastWoke],
		Alerts:         c[statAlerts],
		AlertWakes:     c[statAlertWakes],
		AlertedWait:    c[statAlertedWait],
		AlertedP:       c[statAlertedP],
		TestAlertTrue:  c[statTestAlertTrue],
		TimerArm:       c[statTimerArm],
		TimerFire:      c[statTimerFire],
		TimerCancel:    c[statTimerCancel],
		TimerDrain:     c[statTimerDrain],
		PriBoost:       c[statPriBoost],
		PriRestore:     c[statPriRestore],
	}
}

// ResetStats zeroes all counters.
func ResetStats() {
	for i := range statShards {
		for id := statID(0); id < numStats; id++ {
			statShards[i].c[id].Store(0)
		}
	}
}
