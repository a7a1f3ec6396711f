package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Span names. Roots are the workloads' operations; every other span wraps
// one call into a public function of the library and is a child of the
// root that shares its op id.
const (
	spKVOp = iota
	spPipelineItem
	spDeadlineOp
	spDeadlineWait
	spAcquire
	spRelease
	spPush
	spPop
	spPopDeadline
	spAcquireDeadline
	spAlertWaitDeadline
	spAlert
	numSpanNames
)

// firstChild is the first non-root span name.
const firstChild = spAcquire

var spanNames = [numSpanNames]string{
	"kv.op", "pipeline.item", "deadline.op", "deadline.wait",
	"Mutex.Acquire", "Mutex.Release", "Ring.Push", "Ring.Pop", "Ring.PopDeadline",
	"Mutex.AcquireDeadline", "Condition.AlertWaitDeadline", "Alert",
}

// spanCap is each recorder's preallocated capacity. The sampling rates
// (1-in-N root ops, per workload) keep a 10 s traced phase inside it;
// spans past capacity are dropped and counted.
const spanCap = 1 << 17

type span struct {
	start, end int64
	op         uint64
	name       uint8
	thread     uint8
}

// spanRec is one thread's span buffer. Only its owner appends, so
// recording takes no lock and, being preallocated, allocates nothing.
type spanRec struct {
	thread  uint8
	buf     []span
	dropped int64
}

// tracer owns every recorder of one traced phase. A nil *tracer means the
// phase is untraced: its recorders are nil, and workloads record spans
// only in a traced phase.
type tracer struct {
	recs []*spanRec
}

// recorder returns a new recorder for one thread. Call it before the
// phase starts.
func (t *tracer) recorder() *spanRec {
	if t == nil {
		return nil
	}
	r := &spanRec{thread: uint8(len(t.recs)), buf: make([]span, 0, spanCap)}
	t.recs = append(t.recs, r)
	return r
}

func (r *spanRec) add(name int, op uint64, start, end int64) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, span{start: start, end: end, op: op, name: uint8(name), thread: r.thread})
	} else {
		r.dropped++
	}
}

// spanSummary is what the traced run reports per span name.
type spanSummary struct {
	count          int
	busyNs, selfNs int64
	p50Ns, p99Ns   float64
}

// summarize computes per-name counts, busy time, duration percentiles and
// self time. A root's self time is its duration minus the part of it that
// its children (clipped to the root's interval) cover; a child has no
// children, so its self time is its duration.
func (t *tracer) summarize() (sum [numSpanNames]spanSummary, dropped int64) {
	var all []span
	for _, r := range t.recs {
		all = append(all, r.buf...)
		dropped += r.dropped
	}
	var durs [numSpanNames][]int64
	for _, s := range all {
		d := s.end - s.start
		durs[s.name] = append(durs[s.name], d)
		sum[s.name].count++
		sum[s.name].busyNs += d
		if s.name >= firstChild {
			sum[s.name].selfNs += d
		}
	}
	for n := range durs {
		q := quantiles(durs[n], 0.5, 0.99)
		sum[n].p50Ns, sum[n].p99Ns = q[0], q[1]
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].op != all[j].op {
			return all[i].op < all[j].op
		}
		return all[i].start < all[j].start
	})
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].op == all[i].op {
			j++
		}
		group := all[i:j]
		for _, root := range group {
			if root.name < firstChild {
				sum[root.name].selfNs += selfTime(root, group)
			}
		}
		i = j
	}
	return sum, dropped
}

// selfTime is root's duration minus the union of its children's
// intervals clipped to it. group is sorted by start.
func selfTime(root span, group []span) int64 {
	covered := int64(0)
	cur0, cur1 := int64(0), int64(-1)
	for _, c := range group {
		if c.name < firstChild {
			continue
		}
		s, e := max(c.start, root.start), min(c.end, root.end)
		if e <= s {
			continue
		}
		if s > cur1 {
			if cur1 > cur0 {
				covered += cur1 - cur0
			}
			cur0, cur1 = s, e
		} else if e > cur1 {
			cur1 = e
		}
	}
	if cur1 > cur0 {
		covered += cur1 - cur0
	}
	return root.end - root.start - covered
}

// write dumps every span as tab-separated text: name, op id, parent (the
// root's name for a child, "-" for a root), thread, start and end in
// nanoseconds since the benchmark started.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\top\tparent\tthread\tstart_ns\tend_ns")
	rootOf := map[uint64]string{}
	for _, r := range t.recs {
		for _, s := range r.buf {
			if s.name < firstChild {
				rootOf[s.op] = spanNames[s.name]
			}
		}
	}
	for _, r := range t.recs {
		for _, s := range r.buf {
			parent := "-"
			if s.name >= firstChild {
				if p, ok := rootOf[s.op]; ok {
					parent = p
				}
			}
			fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\t%d\n", spanNames[s.name], s.op, parent, s.thread, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
