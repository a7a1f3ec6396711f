package main

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// epoch anchors nowNs. time.Since reads the monotonic clock, so the
// values are immune to wall-clock steps.
var epoch = time.Now()

// nowNs is the benchmark's clock: monotonic nanoseconds since process start.
func nowNs() int64 { return int64(time.Since(epoch)) }

// budget bounds one phase of a workload: it runs for d, or, when n > 0,
// until each load thread has issued n operations. Timed phases use d;
// warm-up uses n, so that set-up does a fixed amount of work.
type budget struct {
	d time.Duration
	n int64
}

// phaseCtl is the start line and stop flag one phase's load threads share.
type phaseCtl struct {
	start  chan struct{}
	stop   atomic.Bool
	limit  int64
	allocs uint64 // heap objects allocated between release and join
}

func newPhase(b budget) *phaseCtl {
	return &phaseCtl{start: make(chan struct{}), limit: b.n}
}

// done reports whether a load thread that has issued ops operations
// should stop.
func (p *phaseCtl) done(ops int64) bool {
	if p.limit > 0 {
		return ops >= p.limit
	}
	return p.stop.Load()
}

// meter is one thread's progress as the phase's clock reads it: ops done
// and latency samples recorded so far. The owner publishes; the main
// goroutine reads at slice boundaries.
type meter struct {
	ops, n atomic.Int64
	_      [48]byte
}

// mark is a reading of every meter at one instant of a phase, with the
// host's stolen CPU time so far.
type mark struct {
	at     time.Duration // since release
	ops, n []int64
	steal  int64
}

// sliceDur is the length of the slices a timed phase is cut into. Each
// slice yields its own throughput and latency quantiles, and the run
// reports their medians, so a transient stall on a shared host moves one
// slice, not the result.
const sliceDur = 500 * time.Millisecond

// run releases the phase's load threads, lets them run out their budget
// and calls join, which must return once every load thread has ended. It
// returns the wall time from release to the end of join and the meter
// readings at each slice boundary (for a count-limited phase, one slice:
// release to join), and records the heap allocations made in between.
func (p *phaseCtl) run(b budget, meters []*meter, join func()) (time.Duration, []mark) {
	a0 := heapObjects()
	t0 := time.Now()
	read := func() mark {
		m := mark{at: time.Since(t0), ops: make([]int64, len(meters)), n: make([]int64, len(meters)), steal: stealTicks()}
		for i, mt := range meters {
			m.ops[i], m.n[i] = mt.ops.Load(), mt.n.Load()
		}
		return m
	}
	marks := []mark{read()}
	close(p.start)
	if b.n == 0 {
		k := max(1, int((b.d+sliceDur/2)/sliceDur))
		for i := 1; i <= k; i++ {
			time.Sleep(time.Until(t0.Add(b.d * time.Duration(i) / time.Duration(k))))
			marks = append(marks, read())
		}
		p.stop.Store(true)
	}
	join()
	d := time.Since(t0)
	if b.n > 0 {
		marks = append(marks, read())
	}
	p.allocs = heapObjects() - a0
	return d, marks
}

// sliceRates returns the ops per second of each slice.
func sliceRates(marks []mark) []float64 {
	var out []float64
	for i := 1; i < len(marks); i++ {
		var ops int64
		for j := range marks[i].ops {
			ops += marks[i].ops[j] - marks[i-1].ops[j]
		}
		out = append(out, float64(ops)/(marks[i].at-marks[i-1].at).Seconds())
	}
	return out
}

// A slice in which the hypervisor ran something else on this machine's
// CPUs for more than maxStealTicks (1/100 s each, summed over CPUs) measures
// the host, and is left out of the medians — unless fewer than
// minQuietSlices slices are quiet, when every slice counts.
const (
	maxStealTicks  = 2
	minQuietSlices = 3
)

// stealTicks reads the stolen CPU time from /proc/stat, or returns 0
// where the host does not report it (every slice then counts as quiet).
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// quietSlices reports, per slice, whether the host stole at most
// maxStealTicks during it.
func quietSlices(marks []mark) []bool {
	q := make([]bool, max(0, len(marks)-1))
	n := 0
	for i := range q {
		q[i] = marks[i+1].steal-marks[i].steal <= maxStealTicks
		if q[i] {
			n++
		}
	}
	if n < min(minQuietSlices, len(q)) {
		for i := range q {
			q[i] = true
		}
	}
	return q
}

// kept returns the xs whose slice keep marks.
func kept(xs []float64, keep []bool) []float64 {
	var out []float64
	for i, x := range xs {
		if keep[i] {
			out = append(out, x)
		}
	}
	return out
}

// sliced is latency samples recorded by a phase's meters, with the marks
// that cut them into slices: per[j] holds the samples of meters[j].
type sliced struct {
	marks []mark
	per   [][]int64
}

func (s sliced) slices() int { return max(0, len(s.marks)-1) }

// slice returns the samples recorded in slice i, copied into buf.
func (s sliced) slice(i int, buf []int64) []int64 {
	buf = buf[:0]
	for j, xs := range s.per {
		lo := min(s.marks[i].n[j], int64(len(xs)))
		hi := min(s.marks[i+1].n[j], int64(len(xs)))
		buf = append(buf, xs[lo:hi]...)
	}
	return buf
}

// quantile is the median over slices of each slice's p-quantile,
// skipping empty slices and those keep rejects (keep nil keeps all).
func (s sliced) quantile(p float64, keep func(i int) bool) float64 {
	var qs []float64
	var buf []int64
	for i := 0; i < s.slices(); i++ {
		if keep != nil && !keep(i) {
			continue
		}
		buf = s.slice(i, buf)
		if len(buf) > 0 {
			qs = append(qs, quantiles(buf, p)[0])
		}
	}
	return medianOf(qs)
}

// all returns every sample, in no particular order.
func (s sliced) all() []int64 {
	var out []int64
	for _, xs := range s.per {
		out = append(out, xs...)
	}
	return out
}

// medianOf returns the median of xs (sorted in place), or 0 for none.
func medianOf(xs []float64) float64 {
	med, _, _ := medianQuartiles(xs)
	return med
}

func heapObjects() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// samples is a fixed-capacity sample buffer: add never allocates, and
// drops samples once the buffer is full (buffers are sized for the
// fastest rate a phase can reach).
type samples struct {
	v []int64
}

// newSamples allocates the buffer and touches every page of it, so the
// process's resident memory does not depend on how many samples a run
// happens to record.
func newSamples(capacity int) samples {
	v := make([]int64, capacity)
	for i := 0; i < len(v); i += 512 {
		v[i] = 0
	}
	return samples{v: v[:0]}
}

func (s *samples) add(x int64) {
	if len(s.v) < cap(s.v) {
		s.v = append(s.v, x)
	}
}

// quantiles returns the nearest-rank quantiles ps (each in (0, 1]) of xs,
// which it sorts in place. An empty xs yields zeros.
func quantiles(xs []int64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		return out
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	for i, p := range ps {
		k := int(math.Ceil(p*float64(len(xs)))) - 1
		k = max(0, min(k, len(xs)-1))
		out[i] = float64(xs[k])
	}
	return out
}

// medianQuartiles returns the median and the first and third quartiles of
// xs (sorted in place), interpolated as Python's statistics.quantiles does
// with its default exclusive method.
func medianQuartiles(xs []float64) (med, q1, q3 float64) {
	sort.Float64s(xs)
	q := func(p float64) float64 {
		n := len(xs)
		if n == 0 {
			return 0
		}
		if n == 1 {
			return xs[0]
		}
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			return xs[0]
		}
		if j >= n {
			return xs[n-1]
		}
		return xs[j-1] + (pos-float64(j))*(xs[j]-xs[j-1])
	}
	return q(0.5), q(0.25), q(0.75)
}

// mix is the splitmix64 finalizer: the benchmark's hash for digests and
// transforms.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// rngFor derives an independent generator for one input stream from the
// run's seed, so each stream can be regenerated on its own.
func rngFor(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(uint64(seed) ^ mix(stream+1)))))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
