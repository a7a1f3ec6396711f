package main

import (
	"fmt"
	"math/rand"
	"unsafe"

	"threads/internal/core"
)

// The kv workload: a closed loop of procs clients over a striped lock
// table. Each op picks a key from a seeded Zipf distribution, takes the
// key's stripe mutex and either reads the key's (v, ^v) word pair (a get,
// short hold) or adds a seeded delta to it (a put, longer hold).
//
// Key k is the k-th most popular and lives on stripe k mod kvStripes, and
// every pair has a cache line of its own, so which keys are hot, and how
// they share stripes, is the same for every seed: the seed varies the op
// sequence, not the table's contention structure.

const (
	kvKeys       = 1024
	kvStripes    = 64
	kvZipfS      = 1.1
	kvPutPercent = 10
	kvTapeLen    = 1 << 16 // ops per client tape; clients cycle through it
	kvWindow     = 1024    // latency is timed over windows of this many consecutive ops
	kvPublish    = 64      // ops between a client's progress reports
	kvPutBit     = 1 << 16
	kvWarmupOps  = 300_000 // per client
)

type kvStripe struct {
	mu   core.Mutex
	sink uint64 // absorbs the put's hold work
	_    [(128 - (unsafe.Sizeof(core.Mutex{})+8)%128) % 128]byte
}

// kvPair is one key's value, stored with its complement. A put writes the
// two words separately; a get that sees them disagree saw a torn write,
// which only a failure of mutual exclusion can produce.
type kvPair struct {
	v, nv uint64
	_     [48]byte
}

type kvWorkload struct {
	procs   int
	stripes [kvStripes]kvStripe
	pairs   [kvKeys]kvPair
	init    [kvKeys]uint64
	tapes   [][]uint64 // per client: key | put bit | delta<<32
	pos     []uint64   // ops each client has issued over all phases
}

func newKV(seed int64, procs int) workload {
	w := &kvWorkload{procs: procs, pos: make([]uint64, procs)}
	r := rngFor(seed, 0)
	for k := range w.pairs {
		v := r.Uint64()
		w.init[k] = v
		w.pairs[k] = kvPair{v: v, nv: ^v}
	}
	for c := 0; c < procs; c++ {
		cr := rngFor(seed, 1+uint64(c))
		z := rand.NewZipf(cr, kvZipfS, 1, kvKeys-1)
		tape := make([]uint64, kvTapeLen)
		for i := range tape {
			op := z.Uint64()
			if cr.Intn(100) < kvPutPercent {
				op |= kvPutBit | uint64(cr.Uint32())<<32
			}
			tape[i] = op
		}
		w.tapes = append(w.tapes, tape)
	}
	return w
}

func (w *kvWorkload) warmup() budget { return budget{n: kvWarmupOps} }
func (w *kvWorkload) traceN() int    { return 2048 }

// crit is the critical section of one op, run with the stripe held. It
// reports whether a get saw a torn pair.
func (w *kvWorkload) crit(st *kvStripe, op uint64) bool {
	p := &w.pairs[op&0xffff]
	if op&kvPutBit == 0 {
		return p.v != ^p.nv
	}
	v := p.v + op>>32
	p.v = v
	h := v
	for j := 0; j < 8; j++ {
		h = mix(h)
	}
	st.sink += h
	p.nv = ^v
	return false
}

func (w *kvWorkload) measure(b budget, tr *tracer) phaseResult {
	ph := newPhase(b)
	type out struct {
		ops, torn int64
		lat       samples // ns per kvWindow ops
		meter     meter
	}
	outs := make([]out, w.procs)
	// Windows per client: enough for 10 M ops/s per client.
	windows := int(b.d.Seconds()*10e6/kvWindow) + 1024
	if b.n > 0 {
		windows = int(b.n/kvWindow + 1)
	}
	// coRunning reports whether every other client made between three
	// quarters and four thirds of a window's progress while client c ran
	// its last window, and starts the next window's count. A window in
	// which one client stood still while the other ran (the host
	// descheduled it) measures the host, not the table.
	coRunning := func(c int, others []int64) bool {
		ok := true
		for j := range outs {
			if j == c {
				continue
			}
			n := outs[j].meter.ops.Load()
			if d := n - others[j]; d < kvWindow*3/4 || d > kvWindow*4/3 {
				ok = false
			}
			others[j] = n
		}
		return ok
	}
	threads := make([]*core.Thread, w.procs)
	for c := range threads {
		c := c
		o := &outs[c]
		o.lat = newSamples(windows)
		rec := tr.recorder()
		others := make([]int64, w.procs) // other clients' progress at window start
		threads[c] = core.Fork(func() {
			<-ph.start
			tape, pos := w.tapes[c], w.pos[c]
			win := nowNs()
			for !ph.done(o.ops) {
				op := tape[pos%kvTapeLen]
				st := &w.stripes[(op&0xffff)%kvStripes]
				switch {
				case rec != nil && pos%uint64(w.traceN()) == 0:
					id := uint64(c)<<48 | pos
					t0 := nowNs()
					st.mu.Acquire()
					t1 := nowNs()
					torn := w.crit(st, op)
					t2 := nowNs()
					st.mu.Release()
					t3 := nowNs()
					rec.add(spAcquire, id, t0, t1)
					rec.add(spRelease, id, t2, t3)
					rec.add(spKVOp, id, t0, t3)
					if torn {
						o.torn++
					}
				default:
					st.mu.Acquire()
					torn := w.crit(st, op)
					st.mu.Release()
					if torn {
						o.torn++
					}
				}
				pos++
				o.ops++
				if o.ops%kvPublish == 0 {
					o.meter.ops.Store(o.ops)
				}
				if o.ops%kvWindow == 0 {
					t := nowNs()
					if coRunning(c, others) {
						o.lat.add(t - win)
						o.meter.n.Store(int64(len(o.lat.v)))
					}
					win = t
				}
			}
			w.pos[c] = pos
		})
	}
	meters := make([]*meter, w.procs)
	for c := range outs {
		meters[c] = &outs[c].meter
	}
	elapsed, marks := ph.run(b, meters, func() {
		for _, t := range threads {
			core.Join(t)
		}
	})
	quiet := quietSlices(marks)
	res := phaseResult{elapsed: elapsed, rates: kept(sliceRates(marks), quiet), allocs: ph.allocs}
	res.keep = func(i int) bool { return quiet[i] }
	var per [][]int64
	for i := range outs {
		o := &outs[i]
		res.ops += o.ops
		res.failed += o.torn
		per = append(per, o.lat.v)
	}
	res.lat = sliced{marks, per}
	res.latScale = 1.0 / kvWindow
	res.attempted = res.ops
	res.acquires = res.ops
	return res
}

// verify replays every client's tape sequentially for the number of ops
// it issued and compares the table with the result: puts commute, so the
// final values do not depend on the interleaving.
func (w *kvWorkload) verify() []string {
	want := kvReplay(w.init, w.tapes, w.pos)
	var got [kvKeys]kvPair
	copy(got[:], w.pairs[:])
	return kvCheck(got, want)
}

// kvReplay computes the expected final value of every key.
func kvReplay(init [kvKeys]uint64, tapes [][]uint64, pos []uint64) [kvKeys]uint64 {
	want := init
	for c, tape := range tapes {
		var cycle [kvKeys]uint64
		for _, op := range tape {
			if op&kvPutBit != 0 {
				cycle[op&0xffff] += op >> 32
			}
		}
		full := pos[c] / kvTapeLen
		for k := range want {
			want[k] += full * cycle[k]
		}
		for _, op := range tape[:pos[c]%kvTapeLen] {
			if op&kvPutBit != 0 {
				want[op&0xffff] += op >> 32
			}
		}
	}
	return want
}

// kvCheck reports every key whose final pair is torn or differs from the
// sequential replay. (Torn gets are counted as they happen, by crit.)
func kvCheck(got [kvKeys]kvPair, want [kvKeys]uint64) []string {
	var errs []string
	for k := range got {
		if got[k].v != want[k] || got[k].nv != ^want[k] {
			errs = append(errs, fmt.Sprintf("kv: key %d = (%#x, %#x), replay gives %#x", k, got[k].v, got[k].nv, want[k]))
		}
	}
	return errs
}
