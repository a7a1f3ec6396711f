package main

import (
	"fmt"
	"math"

	"threads/internal/core"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is every metric an untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
}

// layerDefs is every metric a traced run reports, apart from the span
// metrics spanDefs adds. Per-op rates are per operation counted by
// ops_per_s.
var layerDefs = []metricDef{
	{"gate.fast_frac", "frac"},
	{"gate.pair_ns", "ns"},
	{"spin.acquire_frac", "frac"},
	{"spin.wait_frac", "frac"},
	{"nub.entries_per_op", "1/op"},
	{"nub.backout_frac", "frac"},
	{"spinlock.pair_ns", "ns"},
	{"queue.push_pop_ns", "ns"},
	{"queue.push_pop8_ns", "ns"},
	{"queue.ops_per_op", "1/op"},
	{"park.parks_per_op", "1/op"},
	{"park.handoff_frac", "frac"},
	{"park.roundtrip_ns", "ns"},
	{"park.allocs_per_park", "count"},
	{"cond.waits_per_op", "1/op"},
	{"cond.signal_fast_frac", "frac"},
	{"cond.signal_woke_frac", "frac"},
	{"cond.morph_frac", "frac"},
	{"self.ns", "ns"},
	{"self.calls_per_op", "1/op"},
	{"timer.arms_per_op", "1/op"},
	{"timer.fire_frac", "frac"},
	{"timer.drains", "count"},
	{"deadline.pair_ns", "ns"},
	{"deadline.lateness_p99_us", "us"},
	{"alert.wake_frac", "frac"},
	{"alert.latency_p99_us", "us"},
	{"gen.lag_p99_us", "us"},
	{"pipeline.latency_p99_us", "us"},
	{"trace.overhead_frac", "frac"},
	{"trace.sample_n", "count"},
	{"trace.dropped", "count"},
	{"ledger.measured_ns", "ns"},
	{"ledger.explained_ns", "ns"},
	{"ledger.residual_ns", "ns"},
	{"ledger.residual_frac", "frac"},
	{"bench.error_frac", "frac"},
}

// spanDefs lists each span name's metrics: count, busy time and duration
// percentiles, and for roots the self time.
func spanDefs() []metricDef {
	var defs []metricDef
	for n, name := range spanNames {
		p := "span." + name + "."
		defs = append(defs,
			metricDef{p + "count", "count"},
			metricDef{p + "busy_ms", "ms"},
			metricDef{p + "p50_us", "us"},
			metricDef{p + "p99_us", "us"})
		if n < firstChild {
			defs = append(defs, metricDef{p + "self_ms", "ms"})
		}
	}
	return defs
}

func perLayerDefs() []metricDef { return append(append([]metricDef(nil), layerDefs...), spanDefs()...) }

// tracedRun is everything a traced run measured.
type tracedRun struct {
	stats      core.Stats
	res        phaseResult // the traced phase
	untracedPS float64     // ops_per_s of the untraced phase before it
	cal        map[string]calibStat
	spans      [numSpanNames]spanSummary
	dropped    int64
	traceN     int
	failed     int64
	attempted  int64
}

func p99us(xs []int64) float64 { return quantiles(xs, 0.99)[0] / 1e3 }

// layerMetrics derives every per-layer metric of a traced run.
func layerMetrics(r tracedRun) map[string]float64 {
	s, res := r.stats, r.res
	ops := float64(res.ops)
	perOp := func(x uint64) float64 { return ratio(float64(x), ops) }
	acq := s.AcquireFast + s.AcquireSpin + s.AcquireNub
	nubEntries := s.AcquireNub + s.PNub + s.ReleaseNub + s.VNub + s.SignalNub + s.BcastNub + s.WaitElided + s.WaitPark
	enqueues := s.AcquirePark + s.AcquireBackout + s.PPark + s.PBackout
	queueOps := enqueues + s.WaitPark + s.SignalMorph
	parks := s.AcquirePark + s.PPark + s.WaitPark
	handoffs := s.ReleaseHandoff + s.VHandoff
	selfCalls := s.TimerArm + uint64(res.selfCalls)
	tracedPS := medianOf(append([]float64(nil), res.rates...))

	m := map[string]float64{
		"gate.fast_frac":           ratio(float64(s.AcquireFast), float64(acq)),
		"spin.acquire_frac":        ratio(float64(s.AcquireSpin), float64(acq)),
		"spin.wait_frac":           ratio(float64(s.WaitSpin+s.WaitElided), float64(s.WaitCount)),
		"nub.entries_per_op":       perOp(nubEntries),
		"nub.backout_frac":         ratio(float64(s.AcquireBackout+s.PBackout), float64(enqueues)),
		"queue.ops_per_op":         perOp(queueOps),
		"park.parks_per_op":        perOp(parks),
		"park.handoff_frac":        ratio(float64(handoffs), float64(handoffs+s.ReleaseNub+s.VNub)),
		"park.allocs_per_park":     ratio(float64(res.allocs), float64(parks)),
		"cond.waits_per_op":        perOp(s.WaitCount),
		"cond.signal_fast_frac":    ratio(float64(s.SignalFast), float64(s.SignalFast+s.SignalNub)),
		"cond.signal_woke_frac":    ratio(float64(s.SignalWoke+s.SignalMorph), float64(s.SignalNub)),
		"cond.morph_frac":          ratio(float64(s.SignalMorph), float64(s.SignalWoke+s.SignalMorph)),
		"self.calls_per_op":        perOp(selfCalls),
		"timer.arms_per_op":        perOp(s.TimerArm),
		"timer.fire_frac":          ratio(float64(s.TimerFire), float64(s.TimerArm)),
		"timer.drains":             float64(s.TimerDrain),
		"deadline.lateness_p99_us": 0,
		"alert.wake_frac":          ratio(float64(s.AlertWakes), float64(s.Alerts)),
		"alert.latency_p99_us":     p99us(res.alertLat),
		"gen.lag_p99_us":           p99us(res.genLag),
		"pipeline.latency_p99_us":  0,
		"trace.overhead_frac":      1 - ratio(tracedPS, r.untracedPS),
		"trace.sample_n":           float64(r.traceN),
		"trace.dropped":            float64(r.dropped),
		"bench.error_frac":         ratio(float64(r.failed), float64(r.attempted)),
	}
	// The p99 diagnostics take every latency sample of the phase: the
	// deadline workload's are lateness, the pipeline's paced latency.
	if res.alertLat != nil {
		m["deadline.lateness_p99_us"] = p99us(res.lat.all())
	}
	if res.genLag != nil {
		m["pipeline.latency_p99_us"] = p99us(res.lat.all())
	}
	for name, c := range r.cal {
		m[name] = c.med
	}

	// The ledger sets the untraced time per op against the counts per op
	// priced at the calibrated unit costs. A park is priced at half a
	// ping-pong round trip; an armed deadline at AcquireDeadline+Release
	// less the gate pair and the Self it contains.
	c := func(n string) float64 { return r.cal[n].med }
	timerUnit := math.Max(0, c("deadline.pair_ns")-c("gate.pair_ns")-c("self.ns"))
	explained := perOp(acq)*c("gate.pair_ns") +
		perOp(nubEntries)*c("spinlock.pair_ns") +
		perOp(queueOps)*c("queue.push_pop_ns") +
		perOp(parks)*c("park.roundtrip_ns")/2 +
		perOp(selfCalls)*c("self.ns") +
		perOp(s.TimerArm)*timerUnit
	measured := ratio(1e9, r.untracedPS)
	m["ledger.measured_ns"] = measured
	m["ledger.explained_ns"] = explained
	m["ledger.residual_ns"] = measured - explained
	m["ledger.residual_frac"] = ratio(measured-explained, measured)

	for n, name := range spanNames {
		sp := r.spans[n]
		p := "span." + name + "."
		m[p+"count"] = float64(sp.count)
		m[p+"busy_ms"] = float64(sp.busyNs) / 1e6
		m[p+"p50_us"] = sp.p50Ns / 1e3
		m[p+"p99_us"] = sp.p99Ns / 1e3
		if n < firstChild {
			m[p+"self_ms"] = float64(sp.selfNs) / 1e6
		}
	}
	return m
}

// counterInvariants checks the counters of a traced phase, snapshotted at
// quiescence, against the calls the benchmark issued.
//
// Acquire-class gate entries are the benchmark's own Acquire and
// AcquireDeadline calls, the one Acquire each Ring call makes, and one
// reacquisition per Wait — except a Wait whose waiter was handed the mutex
// by a direct hand-off, so the sum may fall short of that by at most
// ReleaseHandoff.
func counterInvariants(s core.Stats, res phaseResult) []string {
	var errs []string
	acq := s.AcquireFast + s.AcquireSpin + s.AcquireNub
	want := uint64(res.acquires) + s.WaitCount
	if acq > want || acq+s.ReleaseHandoff < want {
		errs = append(errs, fmt.Sprintf("AcquireFast+AcquireSpin+AcquireNub = %d, benchmark issued %d (+%d Wait reacquisitions, %d hand-offs)",
			acq, res.acquires, s.WaitCount, s.ReleaseHandoff))
	}
	// The workloads issue no P; the calibration's ping-pong checks this
	// invariant on real P calls.
	if p := s.PFast + s.PSpin + s.PNub; p != 0 {
		errs = append(errs, fmt.Sprintf("PFast+PSpin+PNub = %d, benchmark issued no P", p))
	}
	if s.TimerArm != s.TimerFire+s.TimerCancel {
		errs = append(errs, fmt.Sprintf("TimerArm = %d, TimerFire+TimerCancel = %d", s.TimerArm, s.TimerFire+s.TimerCancel))
	}
	if s.Alerts != s.AlertedWait+s.AlertedP+s.TestAlertTrue {
		errs = append(errs, fmt.Sprintf("Alerts = %d, AlertedWait+AlertedP+TestAlertTrue = %d", s.Alerts, s.AlertedWait+s.AlertedP+s.TestAlertTrue))
	}
	return errs
}
