package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"threads/internal/core"
)

// Each checker must accept the output of a correct run and reject a
// deliberately corrupted one: a checker that passes everything would let
// a broken library through as "correct".

func TestKVCheckRejectsCorruption(t *testing.T) {
	w := newKV(3, 2).(*kvWorkload)
	// Run every client's tape sequentially, part of the way round and
	// past one full cycle, through the same critical section the
	// clients use.
	for c, n := range []uint64{kvTapeLen + 123, 4567} {
		for i := uint64(0); i < n; i++ {
			op := w.tapes[c][i%kvTapeLen]
			st := &w.stripes[(op&0xffff)%kvStripes]
			if w.crit(st, op) {
				t.Fatalf("client %d op %d: a sequential get saw a torn pair", c, i)
			}
		}
		w.pos[c] = n
	}
	if errs := w.verify(); len(errs) != 0 {
		t.Fatalf("correct table rejected: %v", errs)
	}

	want := kvReplay(w.init, w.tapes, w.pos)
	var got [kvKeys]kvPair
	copy(got[:], w.pairs[:])
	got[5].v++
	got[5].nv = ^got[5].v
	if len(kvCheck(got, want)) == 0 {
		t.Error("a wrong final value (with a consistent complement) passed")
	}
	copy(got[:], w.pairs[:])
	got[9].nv ^= 1
	if len(kvCheck(got, want)) == 0 {
		t.Error("a torn final pair passed")
	}
	w.pairs[7].nv ^= 1
	if !w.crit(&w.stripes[7], 7) {
		t.Error("a get of a torn pair was not reported")
	}
}

// pipeRun feeds the sink the items a correct run would deliver: each
// producer's items in sequence order, interleaved round-robin.
func pipeRun(w *pipelineWorkload, produced [pipeSources]uint64, feed func(p int, seq uint64)) {
	for seq := uint64(0); ; seq++ {
		done := true
		for p := range produced {
			if seq < produced[p] {
				feed(p, seq)
				done = false
			}
		}
		if done {
			return
		}
	}
}

func TestPipelineCheckRejectsCorruption(t *testing.T) {
	w := newPipeline(4, 2).(*pipelineWorkload)
	produced := [pipeSources]uint64{300, 250, 40}
	ref := pipeReference(w.tapes, produced)
	deliver := func(corrupt func(p int, seq uint64, it *pipeItem) bool) []string {
		var s pipeSink
		pipeRun(w, produced, func(p int, seq uint64) {
			it := w.item(p, seq)
			it.val = transform(it.val)
			if corrupt != nil && !corrupt(p, seq, &it) {
				return
			}
			s.observe(it.id, it.val)
		})
		return pipeCheck(&s, produced, ref)
	}
	if errs := deliver(nil); len(errs) != 0 {
		t.Fatalf("correct output rejected: %v", errs)
	}
	cases := map[string]func(p int, seq uint64, it *pipeItem) bool{
		"dropped item": func(p int, seq uint64, _ *pipeItem) bool { return !(p == 1 && seq == 17) },
		"wrong value": func(p int, seq uint64, it *pipeItem) bool {
			if p == 0 && seq == 99 {
				it.val++
			}
			return true
		},
		"untransformed value": func(p int, seq uint64, it *pipeItem) bool {
			if p == 2 && seq == 3 {
				it.val = w.tapes[p][seq]
			}
			return true
		},
		"reordered items": func(p int, seq uint64, it *pipeItem) bool {
			if p == 0 && (seq == 10 || seq == 11) {
				*it = w.item(0, 21-seq)
				it.val = transform(it.val)
			}
			return true
		},
	}
	for name, corrupt := range cases {
		if len(deliver(corrupt)) == 0 {
			t.Errorf("%s passed", name)
		}
	}
}

func TestDeadlineChecksRejectCorruption(t *testing.T) {
	if err := dlCheckExpiry(core.DeadlineExceeded, time.Microsecond); err != nil {
		t.Errorf("a wait that expired after its deadline was rejected: %v", err)
	}
	for name, err := range map[string]error{
		"early DeadlineExceeded":        dlCheckExpiry(core.DeadlineExceeded, -time.Microsecond),
		"Alerted with no Alert":         dlCheckExpiry(core.Alerted, time.Microsecond),
		"satisfied expiring wait":       dlCheckExpiry(nil, time.Microsecond),
		"DeadlineExceeded on a far op":  dlCheckFar(core.DeadlineExceeded, false),
		"Alerted on a far op":           dlCheckFar(core.Alerted, false),
		"DeadlineExceeded on far alert": dlCheckFar(core.DeadlineExceeded, true),
	} {
		if err == nil {
			t.Errorf("%s passed", name)
		}
	}
	if dlCheckFar(nil, false) != nil || dlCheckFar(core.Alerted, true) != nil {
		t.Error("a correct far-deadline outcome was rejected")
	}
	if errs := dlCheckEnd(5, 5, false, false); len(errs) != 0 {
		t.Errorf("a balanced end was rejected: %v", errs)
	}
	if len(dlCheckEnd(5, 6, false, false)) == 0 {
		t.Error("an Alerted return with no matching Alert passed")
	}
	if len(dlCheckEnd(5, 5, false, true)) == 0 {
		t.Error("a stale alert at the end passed")
	}
}

// TestWorkloadsRunClean runs the warm-up budget of each benchmarked
// workload, untraced and traced, and checks its outputs and counters.
func TestWorkloadsRunClean(t *testing.T) {
	for _, name := range []string{"kv", "pipeline"} {
		w := workloads[name](1, 2)
		res := w.measure(w.warmup(), nil)
		if res.failed != 0 || res.invalid != "" {
			t.Errorf("%s: %d wrong outcomes, invalid %q: %v", name, res.failed, res.invalid, res.errs)
		}
		core.ResetStats()
		core.EnableStats(true)
		res = w.measure(w.warmup(), &tracer{})
		core.EnableStats(false)
		if errs := counterInvariants(core.SnapshotStats(), res); len(errs) != 0 {
			t.Errorf("%s: %v", name, errs)
		}
		if errs := w.verify(); len(errs) != 0 {
			t.Errorf("%s: %v", name, errs)
		}
	}
}

func TestPacedValidity(t *testing.T) {
	period := int64(time.Second / pipeRate)
	// Three slices of lag samples: on time, one stalled, on time.
	lag := []int64{1, 2, 3, 1, 50 * period, 60 * period, 2, 1, 3}
	marks := []mark{{n: []int64{0}}, {n: []int64{3}}, {n: []int64{6}}, {n: []int64{9}}}
	keep, invalid := pacedValidity(sliced{marks, [][]int64{lag}}, []bool{true, true, true})
	if invalid == "" || keep != nil {
		t.Fatalf("2 valid slices of 3 accepted (min %d)", pipeMinValidSlices)
	}
	marks = append(marks, mark{n: []int64{12}})
	lag = append(lag, 1, 1, 1)
	keep, invalid = pacedValidity(sliced{marks, [][]int64{lag}}, []bool{true, true, true, true})
	if invalid != "" || keep == nil || !keep(0) || keep(1) || !keep(2) || !keep(3) {
		t.Fatalf("want slice 1 alone left out, got invalid %q", invalid)
	}
	keep, _ = pacedValidity(sliced{marks, [][]int64{lag}}, []bool{true, true, true, false})
	if keep != nil {
		t.Fatal("a slice the host stole from counted as valid")
	}
}

func TestQuietSlices(t *testing.T) {
	marks := []mark{{steal: 10}, {steal: 10}, {steal: 20}, {steal: 21}, {steal: 22}}
	q := quietSlices(marks)
	if !q[0] || q[1] || !q[2] || !q[3] {
		t.Fatalf("want slice 1 alone left out, got %v", q)
	}
	q = quietSlices(marks[:3])
	if !q[0] || !q[1] {
		t.Fatalf("with too few quiet slices every slice must count, got %v", q)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		if workloads[wl.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which perfbench does not have", wl.Name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), perfbench prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayerDefs())
}
