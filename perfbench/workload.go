package main

import "time"

// workload is one input set the benchmark runs. Its constructor (in
// workloads) generates every input from the seed; measure runs one phase
// and may be called several times (warm-up, then the timed phases);
// verify checks the outputs accumulated over every phase against a
// reference computed from the seed alone.
type workload interface {
	measure(b budget, tr *tracer) phaseResult
	verify() []string
	warmup() budget
	// traceN is the 1-in-N root-op sampling rate of a traced phase.
	traceN() int
}

// phaseResult is what one measured phase reports.
type phaseResult struct {
	ops     int64         // the operations ops_per_s counts
	elapsed time.Duration // wall time of the phase ops were counted over
	rates   []float64     // ops per second in each slice of the phase
	lat     sliced        // latency samples (latency_p50_us, latency_p90_us)
	// latScale converts a latency sample to ns (0 means 1): kv samples
	// time a window of ops, and the latency is the window's mean per op.
	latScale float64
	// keep, when set, says which latency slices count: those in which
	// the host stole no CPU and, for the pipeline, the paced generator
	// kept to its schedule.
	keep func(slice int) bool

	attempted, failed int64 // operations issued, and those with a wrong outcome

	// Acquire-class gate entries the benchmark issued, for the counter
	// invariants: Acquire, AcquireDeadline, and the one Acquire each
	// Ring.Push/Pop/PopDeadline makes before any Wait.
	acquires int64
	// selfCalls counts the benchmark's own Self/TestAlert calls; the
	// library's are inferred from its counters (one per armed deadline).
	selfCalls int64

	alertLat []int64 // deadline: Alert → Alerted return, ns
	genLag   []int64 // pipeline: paced generator lateness, ns

	errs   []string // the first few wrong outcomes, for the log
	allocs uint64   // heap objects allocated while load threads ran

	// invalid, when set, says why the phase's measurements cannot be
	// trusted (an open-loop generator that fell behind its schedule). It
	// is printed with the result; correct stays a verdict on the outputs.
	invalid string
}

var workloads = map[string]func(seed int64, procs int) workload{
	"kv":       newKV,
	"pipeline": newPipeline,
	"deadline": newDeadline,
}
