// Command perfbench is the repository's end-to-end benchmark: it runs one
// workload of the dependability benchmark (TPC-C plus operator faults)
// on the simulator for a fixed host-time budget, checks every output,
// and prints what the simulation costs on the host.
//
// A run repeats set-up plus measured phase on a fresh simulated platform
// until --seconds of host time have passed (at least three times) and
// reports medians. Every repetition with the same seed must yield
// identical simulated outputs. With --trace 1, every other repetition
// runs under a CPU profile and span recorder; the run then reports the
// per-layer metrics and writes the spans as Chrome trace-event JSON.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"dbench/internal/sim"
)

// metric is one reported number with its unit.
type metric struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, every one a host cost.
var endToEnd = []metric{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"host_ns_per_op", "ns"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
	{"peak_rss_mb", "MB"},
}

// simEndToEnd are the paper-facing simulated results, printed with the
// end-to-end table and reported among the per-layer metrics.
var simEndToEnd = []metric{
	{"error_rate", "ratio"},
	{"sim_tpmC", "txn/min"},
	{"sim_recovery_s", "sim_s"},
}

// perLayer are the metrics of a traced run.
var perLayer = func() []metric {
	var m []metric
	for _, l := range layers {
		m = append(m, metric{l + ".self_s", "s"})
	}
	for _, name := range spanNames {
		m = append(m, metric{name, "s"})
	}
	m = append(m, metric{"sim.switch_ns", "ns"}, metric{"trace.overhead_s", "s"})
	m = append(m, simCounters...)
	m = append(m, metric{"gc.cycles", "count"})
	return append(m, simEndToEnd...)
}()

// spanNames are the host spans reported per repetition.
var spanNames = []string{
	"tpcc.load_s", "engine.checkpoint_s", "backup.take_full_s", "standby.instantiate_s",
	"tpcc.run_s", "tpcc.quiesce_s", "tpcc.consistency_s", "tpcc.durability_s",
	"faults.inject_s", "recovery.instance_s", "recovery.media_s", "recovery.flashback_s",
	"recovery.pit_s", "standby.promote_s",
}

// simCounters are the simulated counters of the measured phase. A
// host-only change leaves every one of them identical.
var simCounters = []metric{
	{"txn.committed", "count"}, {"txn.aborted", "count"},
	{"txn.lock_waits", "count"}, {"txn.lock_timeouts", "count"},
	{"tpcc.offered", "count"}, {"tpcc.served", "count"}, {"tpcc.refused", "count"},
	{"cache.hit_ratio", "ratio"}, {"cache.misses", "count"}, {"cache.evictions", "count"},
	{"cache.dirty_evict_writes", "count"}, {"cache.checkpoint_writes", "count"},
	{"redo.flushes", "count"}, {"redo.flushed_mb", "MB"}, {"redo.switches", "count"},
	{"redo.stall_s", "sim_s"}, {"engine.checkpoints", "count"},
	{"simdisk.data.busy_frac", "ratio"}, {"simdisk.data.reads", "count"}, {"simdisk.data.writes", "count"},
	{"simdisk.redo.busy_frac", "ratio"}, {"simdisk.redo.reads", "count"}, {"simdisk.redo.writes", "count"},
	{"simdisk.arch.busy_frac", "ratio"}, {"simdisk.arch.reads", "count"}, {"simdisk.arch.writes", "count"},
	{"recovery.records_scanned", "count"}, {"recovery.records_applied", "count"},
	{"recovery.apply_ratio", "ratio"}, {"recovery.restore_vs", "sim_s"},
	{"recovery.replay_vs", "sim_s"}, {"recovery.block_writes_vs", "sim_s"},
	{"repl.frames", "count"}, {"repl.mb", "MB"}, {"repl.records", "count"},
	{"repl.sync_waits", "count"}, {"repl.lag_records", "count"},
	{"repl.replica_served", "count"}, {"repl.replica_fallback", "count"},
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: oltp, spill, faultload, failover, or all of them")
	seed := flag.Int64("seed", 1, "seed of the simulated inputs")
	seconds := flag.Float64("seconds", 10, "host seconds to keep repeating the workload")
	traced := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory for the trace-event JSON and CPU profiles")
	flag.Parse()
	if *workloadName == "all" {
		os.Exit(runAll())
	}
	w, ok := workloads[*workloadName]
	if !ok || *traced < 0 || *traced > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (all or one of %v), --seconds > 0 and --trace 0|1\n", workloadNames)
		os.Exit(2)
	}
	res, err := run(os.Stdout, w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// runAll runs every workload in a child process of its own, so each
// reports its own peak memory, with the command line's other flags.
func runAll() int {
	code := 0
	for _, name := range workloadNames {
		cmd := exec.Command(os.Args[0], append(os.Args[1:], "--workload", name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// result is the printed outcome of one run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run repeats the workload for budget and returns the metrics of the
// run, printing a per-repetition log and the metric table to out.
func run(out io.Writer, w workload, seed int64, budget time.Duration, traced bool, outDir string) (*result, error) {
	var sp *spans
	var pr *profiler
	if traced {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		sp = newSpans()
		pr = &profiler{dir: outDir, prefix: w.name}
	}
	minReps := 3
	if traced {
		minReps = 4 // two plain, two traced
	}
	start := time.Now()
	var plain, withTrace []*repResult
	var traceSpans [][]span
	var first *repResult
	var res result
	for i := 0; i < minReps || time.Since(start) < budget; i++ {
		runtime.GC() // each repetition starts from a collected heap
		var r *repResult
		var err error
		tag := ""
		if traced && i%2 == 1 {
			tag = " (traced)"
			from := len(sp.list)
			r, err = runRep(w, seed, sp, pr.bracket)
			if err == nil {
				withTrace = append(withTrace, r)
				traceSpans = append(traceSpans, sp.list[from:])
			}
		} else {
			r, err = runRep(w, seed, nil, nil)
			plain = append(plain, r)
		}
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "repetition %d: set-up %.4f s, measured %.4f s, %d ops%s\n",
			i+1, r.setup.Seconds(), r.measure.Seconds(), r.ops, tag)
		if first == nil {
			first = r
		} else {
			for _, name := range diffSim(first.sim, r.sim) {
				r.fail("simulated %s differs from the first repetition: %v vs %v", name, r.sim[name], first.sim[name])
			}
		}
		if r.ops == 0 {
			r.fail("no ops completed")
		}
		res.Attempted += r.attempted
		res.Failed += len(r.failures)
		for _, f := range r.failures {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d repetition %d: check failed: %s\n", w.name, seed, i+1, f)
		}
	}
	res.Correct = res.Failed == 0
	if res.Attempted == 0 {
		res.Attempted = 1
	}

	e2e := map[string]float64{
		"wall_s":             median(plain, func(r *repResult) float64 { return r.measure.Seconds() }),
		"setup_s":            median(plain, func(r *repResult) float64 { return r.setup.Seconds() }),
		"host_ns_per_op":     median(plain, func(r *repResult) float64 { return perOp(float64(r.measure.Nanoseconds()), r) }),
		"allocs_per_op":      median(plain, func(r *repResult) float64 { return perOp(float64(r.allocs), r) }),
		"alloc_bytes_per_op": median(plain, func(r *repResult) float64 { return perOp(float64(r.bytes), r) }),
		"peak_rss_mb":        peakRSSMB(),
	}
	fmt.Fprintf(out, "perfbench %s seed %d: %d repetitions (%d traced), %d ops each\n",
		w.name, seed, len(plain)+len(withTrace), len(withTrace), first.ops)
	fmt.Fprintln(out, "end-to-end (host = simulator cost, sim = modelled DBMS):")
	for _, m := range endToEnd {
		fmt.Fprintf(out, "  %-20s %16.6g %-8s host\n", m.name, e2e[m.name], m.unit)
	}
	for _, m := range simEndToEnd {
		if v, ok := first.sim[m.name]; ok {
			fmt.Fprintf(out, "  %-20s %16.6g %-8s sim\n", m.name, v, m.unit)
		}
	}

	res.Metrics = map[string]metricValue{}
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
		return &res, nil
	}

	layer := map[string]float64{}
	self, err := pr.selfTimes()
	if err != nil {
		return nil, err
	}
	for l, s := range self {
		layer[l+".self_s"] = s / float64(len(withTrace)) // per repetition
	}
	for _, name := range spanNames {
		layer[name] = medianOf(len(traceSpans), func(i int) float64 {
			var d time.Duration
			for _, s := range traceSpans[i] {
				if s.Name == name {
					d += s.End - s.Start
				}
			}
			return d.Seconds()
		})
	}
	layer["sim.switch_ns"] = switchNS()
	layer["trace.overhead_s"] = median(withTrace, func(r *repResult) float64 { return r.measure.Seconds() }) - e2e["wall_s"]
	layer["gc.cycles"] = median(plain, func(r *repResult) float64 { return float64(r.gcCycles) })
	for _, m := range append(slices.Clone(simCounters), simEndToEnd...) {
		layer[m.name] = first.sim[m.name]
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	if err := sp.writeChrome(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "per-layer (median per repetition; spans in %s):\n", path)
	for _, m := range perLayer {
		fmt.Fprintf(out, "  %-26s %16.6g %s\n", m.name, layer[m.name], m.unit)
		res.Metrics[m.name] = metricValue{layer[m.name], m.unit}
	}
	return &res, nil
}

func perOp(v float64, r *repResult) float64 { return v / math.Max(1, float64(r.ops)) }

func median(reps []*repResult, f func(*repResult) float64) float64 {
	return medianOf(len(reps), func(i int) float64 { return f(reps[i]) })
}

func medianOf(n int, f func(i int) float64) float64 {
	if n == 0 {
		return 0
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = f(i)
	}
	sort.Float64s(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// diffSim names the simulated outputs that differ between two
// repetitions.
func diffSim(a, b map[string]float64) []string {
	var diff []string
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			diff = append(diff, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			diff = append(diff, k)
		}
	}
	sort.Strings(diff)
	return diff
}

// switchNS is the host cost of one Proc.Sleep(0) round trip between two
// processes on a fresh kernel.
func switchNS() float64 {
	const n = 200_000
	k := sim.NewKernel(1)
	for range 2 {
		k.Go("ping", func(p *sim.Proc) {
			for range n {
				p.Sleep(0)
			}
		})
	}
	start := time.Now()
	k.RunAll()
	return float64(time.Since(start).Nanoseconds()) / (2 * n)
}
