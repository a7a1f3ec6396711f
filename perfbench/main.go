// Command perfbench is the repository's end-to-end benchmark: three
// workloads (kv, pipeline, deadline) run against the public API of
// internal/core and derived, each checking its own outputs. An untraced
// run (--trace 0) prints the end-to-end metrics; a traced run (--trace 1)
// calibrates each layer's unit cost, runs the workload untraced and then
// traced, and prints the per-layer metrics, the counter invariants and the
// cost ledger. See README.md in this directory.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload kv --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"threads/internal/core"
)

// setupProbes is how many times an untraced run measures set-up, each in
// a fresh process; setup_s is their median.
const setupProbes = 5

// spanDir is where a traced run writes its spans: under the build
// directory run.sh uses, relative to the directory the benchmark runs in.
func spanDir() string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	return filepath.Join(dir, "spans")
}

func main() { os.Exit(run()) }

func run() int {
	wl := flag.String("workload", "", "workload: kv, pipeline or deadline")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	probe := flag.Bool("probe-setup", false, "internal: set up, warm up, print the time of the first timed op and exit")
	flag.Parse()

	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	mk, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload kv|pipeline|deadline, --seconds >= 1, --trace 0|1 (got %q, %d, %d)\n", *wl, *seconds, *trace)
		return 2
	}
	if *probe {
		w := mk(*seed, procs)
		w.measure(w.warmup(), nil)
		fmt.Println("first_op_unix_ns", time.Now().UnixNano())
		return 0
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d\n", *wl, *seed, *seconds, *trace, procs)
	d := time.Duration(*seconds) * time.Second
	if *trace == 1 {
		return runTraced(*wl, mk, *seed, procs, d)
	}
	return runUntraced(*wl, mk, *seed, procs, d)
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]metricValueOut `json:"metrics"`
}

type metricValueOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func emit(r result, defs []metricDef, values map[string]float64) int {
	r.Metrics = map[string]metricValueOut{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has no finite value (%v)\n", d.name, v)
			r.Correct = false
			v = 0
		}
		r.Metrics[d.name] = metricValueOut{v, d.unit}
		fmt.Printf("# %-36s %14.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !r.Correct {
		return 1
	}
	return 0
}

// outcome folds the phases of a run and the final output check into the
// result's counts, printing every wrong outcome it knows of.
func outcome(w workload, phases ...phaseResult) result {
	r := result{Correct: true}
	for _, p := range phases {
		r.Attempted += p.attempted
		r.Failed += p.failed
		for _, e := range p.errs {
			fmt.Println("# error:", e)
		}
		if p.invalid != "" {
			fmt.Println("# invalid:", p.invalid)
		}
	}
	errs := w.verify()
	for _, e := range errs {
		fmt.Println("# error:", e)
	}
	r.Failed += int64(len(errs))
	if r.Failed > 0 {
		r.Correct = false
	}
	fmt.Printf("# attempted=%d failed=%d error_frac=%g\n", r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)))
	return r
}

func runUntraced(name string, mk func(int64, int) workload, seed int64, procs int, d time.Duration) int {
	setups, err := probeSetups(name, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	w := mk(seed, procs)
	warm := w.measure(w.warmup(), nil)
	res := w.measure(budget{d: d}, nil)
	r := outcome(w, warm, res)

	fmt.Printf("# setup probes (s): %v\n", setups)
	fmt.Printf("# ops=%d elapsed=%v\n", res.ops, res.elapsed)
	fmt.Printf("# ops/s of the quiet slices: %.4g\n", res.rates)
	if res.alertLat != nil {
		fmt.Printf("# deadline lateness p99 %.1f us, alert latency p99 %.1f us (%d alerts)\n",
			p99us(res.lat.all()), p99us(res.alertLat), len(res.alertLat))
	}
	if res.genLag != nil {
		fmt.Printf("# paced latency p99 %.1f us, generator lag p99 %.2f us\n", p99us(res.lat.all()), p99us(res.genLag))
	}
	scale := res.latScale
	if scale == 0 {
		scale = 1
	}
	return emit(r, endToEnd, map[string]float64{
		"setup_s":        medianOf(setups),
		"max_rss_mb":     maxRSSMB(),
		"ops_per_s":      medianOf(res.rates),
		"latency_p50_us": res.lat.quantile(0.5, res.keep) * scale / 1e3,
		"latency_p90_us": res.lat.quantile(0.9, res.keep) * scale / 1e3,
	})
}

// probeSetups measures set-up setupProbes times: each probe is a fresh
// process that generates the inputs, builds the workload, warms up and
// reports the wall-clock time at which its first timed op would start.
func probeSetups(name string, seed int64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--probe-setup", "--workload", name, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		start := time.Now()
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		f := strings.Fields(lastLine(string(b)))
		if len(f) != 2 || f[0] != "first_op_unix_ns" {
			return nil, fmt.Errorf("set-up probe printed %q", b)
		}
		ns, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		out = append(out, float64(ns-start.UnixNano())/1e9)
	}
	return out, nil
}

func lastLine(s string) string {
	var last string
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	return last
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func runTraced(name string, mk func(int64, int) workload, seed int64, procs int, d time.Duration) int {
	cal, err := calibrate()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println("# calibration (ns/op): median [q1, q3]")
	for _, u := range calibUnits {
		c := cal[u.name]
		fmt.Printf("#   %-20s %9.1f [%.1f, %.1f]\n", u.name, c.med, c.q1, c.q3)
	}

	w := mk(seed, procs)
	warm := w.measure(w.warmup(), nil)
	half := budget{d: d / 2}
	untraced := w.measure(half, nil)

	core.ResetStats()
	core.EnableStats(true)
	tr := &tracer{}
	res := w.measure(half, tr)
	core.EnableStats(false)
	stats := core.SnapshotStats() // every worker has joined: quiescent

	r := outcome(w, warm, untraced, res)
	inv := counterInvariants(stats, res)
	for _, e := range inv {
		fmt.Println("# invariant violated:", e)
	}
	if len(inv) > 0 {
		r.Correct = false
	}
	spans, dropped := tr.summarize()
	path := filepath.Join(spanDir(), "spans-"+name+".tsv")
	if err := tr.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		r.Correct = false
	} else {
		fmt.Printf("# spans: %s (1 in %d root ops; %d dropped)\n", path, w.traceN(), dropped)
	}
	printStats(stats)

	m := layerMetrics(tracedRun{
		stats:      stats,
		res:        res,
		untracedPS: medianOf(untraced.rates),
		cal:        cal,
		spans:      spans,
		dropped:    dropped,
		traceN:     w.traceN(),
		failed:     r.Failed,
		attempted:  r.Attempted,
	})
	fmt.Printf("# ledger %s: measured %.1f ns/op, explained %.1f ns/op, residual %.1f ns/op (%.0f%%)\n", name,
		m["ledger.measured_ns"], m["ledger.explained_ns"], m["ledger.residual_ns"], 100*m["ledger.residual_frac"])
	return emit(r, perLayerDefs(), m)
}

// printStats logs the counters of the traced phase.
func printStats(s core.Stats) { fmt.Printf("# stats: %+v\n", s) }
