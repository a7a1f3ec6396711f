package main

import (
	"fmt"
	"time"

	"threads/derived"
	"threads/internal/core"
)

// The pipeline workload: producers → Ring → transformer → Ring → sink, on
// derived.Ring (a Mutex and two Conditions over a small circular buffer).
// Each phase runs saturated for its first half (two producers push as fast
// as backpressure allows) and paced for its second half (one open-loop
// generator emits on a fixed schedule well below saturation).

const (
	pipeRingCap     = 32
	pipeProducers   = 2       // saturated producers; the paced generator is producer 2
	pipeRate        = 20_000  // paced items per second
	pipeTapeLen     = 1 << 16 // values per producer tape
	pipeWarmupItems = 100_000 // per saturated producer
	pipeWarmupPaced = 2_000
	pipePacedLead   = 200 * time.Microsecond // schedule start after the generator is released
	pipeSeqBits     = 48
	pipeEndID       = ^uint64(0)
	pipeSeqMask     = 1<<pipeSeqBits - 1
	pipeSources     = pipeProducers + 1
	// A paced slice whose generator lag p99 exceeds this many periods is
	// left out of the latency figures: the generator itself was stalled,
	// so the slice measures the host rather than the chain.
	pipeMaxLagFactor = 5
	// With fewer valid paced slices than this the run is marked invalid
	// and its latency figures use every slice.
	pipeMinValidSlices = 3
)

// pipeItem travels the chain by value. id is producer<<48 | seq; due is
// the paced schedule time (0 when saturated); t0 is the start of the
// producer's Push when the item is traced (0 otherwise).
type pipeItem struct {
	id, val uint64
	due, t0 int64
}

type pipelineWorkload struct {
	r1, r2   *derived.Ring[pipeItem]
	tapes    [pipeSources][]uint64
	produced [pipeSources]uint64 // items each producer has pushed, over all phases
	sink     pipeSink
}

// pipeSink is the sink's view of the output: the next sequence number
// expected from each producer, the item count and an order-independent
// digest of every (id, transformed value).
type pipeSink struct {
	next     [pipeSources]uint64
	count    uint64
	digest   uint64
	misorder int64
}

func (s *pipeSink) observe(id, val uint64) bool {
	p, seq := id>>pipeSeqBits, id&pipeSeqMask
	ok := p < pipeSources && seq == s.next[p]
	if p < pipeSources {
		s.next[p] = seq + 1
	}
	if !ok {
		s.misorder++
	}
	s.count++
	s.digest += mix(id ^ mix(val))
	return ok
}

func transform(v uint64) uint64 { return mix(v ^ 0x5bd1e995) }

func newPipeline(seed int64, _ int) workload {
	w := &pipelineWorkload{
		r1: derived.NewRing[pipeItem](pipeRingCap),
		r2: derived.NewRing[pipeItem](pipeRingCap),
	}
	for p := range w.tapes {
		r := rngFor(seed, 100+uint64(p))
		tape := make([]uint64, pipeTapeLen)
		for i := range tape {
			tape[i] = r.Uint64()
		}
		w.tapes[p] = tape
	}
	return w
}

func (w *pipelineWorkload) warmup() budget { return budget{n: pipeWarmupItems} }
func (w *pipelineWorkload) traceN() int    { return 128 }

func (w *pipelineWorkload) item(p int, seq uint64) pipeItem {
	return pipeItem{id: uint64(p)<<pipeSeqBits | seq, val: w.tapes[p][seq%pipeTapeLen]}
}

// measure runs the saturated half, then the paced half. The transformer
// and the sink live for the whole phase; an end marker pushed after the
// paced generator's last item stops them.
func (w *pipelineWorkload) measure(b budget, tr *tracer) phaseResult {
	var res phaseResult
	misorder := w.sink.misorder
	traced := tr != nil
	n := uint64(w.traceN())
	paced := budget{n: pipeWarmupPaced}
	if b.n == 0 {
		paced = budget{d: b.d / 2}
	}
	maxPaced := paced.n
	if paced.n == 0 {
		maxPaced = int64(paced.d.Seconds()*pipeRate*1.05) + 1000
	}
	lat := newSamples(int(maxPaced))
	var sinkMeter meter
	var pops int64

	trRec, sinkRec := tr.recorder(), tr.recorder()
	transformer := core.Fork(func() {
		for {
			var t0 int64
			if traced {
				t0 = nowNs()
			}
			it := w.r1.Pop()
			pops++
			if it.id == pipeEndID {
				w.r2.Push(it)
				return
			}
			if it.t0 != 0 {
				trRec.add(spPop, it.id, t0, nowNs())
			}
			it.val = transform(it.val)
			if it.t0 != 0 {
				t1 := nowNs()
				w.r2.Push(it)
				trRec.add(spPush, it.id, t1, nowNs())
			} else {
				w.r2.Push(it)
			}
		}
	})
	var sinkPops int64
	sink := core.Fork(func() {
		for {
			var t0 int64
			if traced {
				t0 = nowNs()
			}
			it := w.r2.Pop()
			sinkPops++
			if it.id == pipeEndID {
				return
			}
			var end int64
			if it.due != 0 || it.t0 != 0 {
				end = nowNs()
			}
			w.sink.observe(it.id, it.val)
			if it.due != 0 {
				lat.add(end - it.due)
				sinkMeter.n.Store(int64(len(lat.v)))
			}
			if it.t0 != 0 {
				sinkRec.add(spPop, it.id, t0, end)
				sinkRec.add(spPipelineItem, it.id, it.t0, end)
			}
		}
	})

	// Saturated half.
	sat := b
	sat.d /= 2
	ph := newPhase(sat)
	var counts [pipeProducers]int64
	var meters [pipeProducers]meter
	producers := make([]*core.Thread, pipeProducers)
	for p := range producers {
		p := p
		rec := tr.recorder()
		producers[p] = core.Fork(func() {
			<-ph.start
			seq := w.produced[p]
			for !ph.done(counts[p]) {
				it := w.item(p, seq)
				if traced && seq%n == 0 {
					it.t0 = nowNs()
					w.r1.Push(it)
					rec.add(spPush, it.id, it.t0, nowNs())
				} else {
					w.r1.Push(it)
				}
				seq++
				counts[p]++
				meters[p].ops.Store(counts[p])
			}
			w.produced[p] = seq
		})
	}
	elapsed, satMarks := ph.run(sat, []*meter{&meters[0], &meters[1]}, func() {
		for _, t := range producers {
			core.Join(t)
		}
	})
	res.elapsed = elapsed
	res.rates = kept(sliceRates(satMarks), quietSlices(satMarks))
	for _, c := range counts {
		res.ops += c
	}

	// Paced half: one generator busy-waits to a fixed schedule and stamps
	// each item with its due time; latency runs from due time to the
	// sink's Pop. Busy-waiting keeps the generator's own lateness far
	// below a period, where time.Sleep would oversleep by a millisecond.
	genLag := newSamples(int(maxPaced))
	var genMeter meter
	genRec := tr.recorder()
	const pg = pipeProducers
	ph2 := newPhase(paced)
	var pacedItems int64
	gen := core.Fork(func() {
		<-ph2.start
		period := int64(time.Second) / pipeRate
		base := nowNs() + int64(pipePacedLead)
		seq := w.produced[pg]
		for i := int64(0); !ph2.done(i); i++ {
			due := base + i*period
			t := nowNs()
			for t < due {
				t = nowNs()
			}
			genLag.add(t - due)
			genMeter.n.Store(int64(len(genLag.v)))
			it := w.item(pg, seq)
			it.due = due
			if traced && seq%n == 0 {
				it.t0 = nowNs()
				w.r1.Push(it)
				genRec.add(spPush, it.id, it.t0, nowNs())
			} else {
				w.r1.Push(it)
			}
			seq++
			pacedItems++
		}
		w.produced[pg] = seq
		w.r1.Push(pipeItem{id: pipeEndID})
	})
	_, pacedMarks := ph2.run(paced, []*meter{&sinkMeter, &genMeter}, func() {
		core.Join(gen)
		core.Join(transformer)
		core.Join(sink)
	})
	res.allocs = ph.allocs + ph2.allocs
	res.lat = sliced{pacedMarks, [][]int64{lat.v, nil}}

	res.attempted = res.ops + pacedItems
	res.failed = w.sink.misorder - misorder
	res.genLag = genLag.v
	if b.n == 0 {
		res.keep, res.invalid = pacedValidity(sliced{pacedMarks, [][]int64{nil, genLag.v}}, quietSlices(pacedMarks))
	}
	// Every item, and the end marker, is pushed once into each ring; the
	// transformer and the sink each pop every one of them.
	pushes := 2 * (res.attempted + 1)
	res.acquires = pushes + pops + sinkPops
	return res
}

// pacedValidity judges each paced slice: it is valid when the host was
// quiet and the generator's lag p99 stayed within pipeMaxLagFactor
// periods. It returns the filter that keeps the valid slices, or, when
// fewer than pipeMinValidSlices are valid, a nil filter (every slice
// counts) and the reason the run is invalid.
func pacedValidity(lag sliced, quiet []bool) (func(int) bool, string) {
	maxLag := int64(pipeMaxLagFactor * time.Second / pipeRate)
	valid := make([]bool, lag.slices())
	n := 0
	var buf []int64
	for i := range valid {
		buf = lag.slice(i, buf)
		valid[i] = quiet[i] && (len(buf) == 0 || int64(quantiles(buf, 0.99)[0]) <= maxLag)
		if valid[i] {
			n++
		}
	}
	if n < min(pipeMinValidSlices, len(valid)) {
		return nil, fmt.Sprintf("pipeline: paced generator lag p99 exceeded %v, or the host stole CPU, in %d of %d slices",
			time.Duration(maxLag), len(valid)-n, len(valid))
	}
	return func(i int) bool { return valid[i] }, ""
}

// verify checks the sink's view against a reference computed from the
// tapes: the exact item count, each producer's sequence numbers in order,
// and the digest of the transformed values.
func (w *pipelineWorkload) verify() []string {
	return pipeCheck(&w.sink, w.produced, pipeReference(w.tapes, w.produced))
}

func pipeReference(tapes [pipeSources][]uint64, produced [pipeSources]uint64) uint64 {
	var d uint64
	for p, tape := range tapes {
		for seq := uint64(0); seq < produced[p]; seq++ {
			id := uint64(p)<<pipeSeqBits | seq
			d += mix(id ^ mix(transform(tape[seq%pipeTapeLen])))
		}
	}
	return d
}

func pipeCheck(s *pipeSink, produced [pipeSources]uint64, digest uint64) []string {
	var errs []string
	var total uint64
	for p, n := range produced {
		total += n
		if s.next[p] != n {
			errs = append(errs, fmt.Sprintf("pipeline: producer %d pushed %d items, sink's last was seq %d", p, n, int64(s.next[p])-1))
		}
	}
	if s.count != total {
		errs = append(errs, fmt.Sprintf("pipeline: sink received %d items, producers pushed %d", s.count, total))
	}
	if s.misorder != 0 {
		errs = append(errs, fmt.Sprintf("pipeline: %d items arrived out of producer order", s.misorder))
	}
	if s.digest != digest {
		errs = append(errs, fmt.Sprintf("pipeline: digest %#x, reference %#x", s.digest, digest))
	}
	return errs
}
