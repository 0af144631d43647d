package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"dbench/internal/core"
	"dbench/internal/engine"
	"dbench/internal/standby"
)

// spec is the core.Spec that core.Run would execute for this workload,
// for the workloads core.Run can express (one fault at most, no
// set-up history). The fidelity test compares the two.
func (w workload) spec(seed int64) core.Spec {
	s := core.Spec{
		Name: w.name, Seed: seed,
		Recovery: core.RecoveryConfig{
			FileSize: int64(w.logMB) << 20, Groups: w.logGroups, CheckpointTimeout: w.ckptTimeout,
		},
		Archive:      w.archive,
		Standbys:     w.standbys,
		ReplMode:     standby.ModeSync,
		ReplLink:     core.LinkLAN,
		ReplicaReads: w.replicaReads,
		TPCC:         w.tpcc,
		CacheBlocks:  w.cacheBlocks,
		Cost:         engine.DefaultCostModel(),
		Duration:     w.run,
		Detection:    2 * time.Second,
	}
	if len(w.faults) == 1 {
		s.Fault = &w.faults[0].fault
		s.InjectAt = w.run
		s.Duration = w.run + time.Hour
		s.TailAfterRecovery = w.tail
	}
	return s
}

// tiny shrinks a workload's simulated run lengths for tests.
func tiny(w workload) workload {
	w.history = min(w.history, 20*time.Second)
	w.run = min(w.run, 20*time.Second)
	w.tail = min(w.tail, 10*time.Second)
	return w
}

// TestFidelity checks that the hand-assembled oltp and failover
// workloads simulate exactly what core.Run does with the equivalent
// core.Spec, so the benchmark measures what dbench runs.
func TestFidelity(t *testing.T) {
	for _, name := range []string{"oltp", "failover"} {
		t.Run(name, func(t *testing.T) {
			w := tiny(workloads[name])
			const seed = 7
			got, err := runRep(w, seed, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Run(w.spec(seed))
			if err != nil {
				t.Fatal(err)
			}
			if len(got.failures) > 0 {
				t.Errorf("output checks failed: %v", got.failures)
			}
			for _, c := range []struct {
				name      string
				got, want float64
			}{
				{"tpmC", got.sim["sim_tpmC"], want.TpmC},
				{"committed", got.sim["committed"], float64(want.Committed)},
				{"checkpoints", got.sim["checkpoints"], float64(want.Checkpoints)},
				{"redo bytes", got.sim["redo_bytes"], float64(want.RedoWritten)},
				{"lost transactions", got.sim["lost"], float64(want.LostTransactions)},
				{"replication lag", got.sim["repl.lag_records"], float64(want.ReplLagRecords)},
			} {
				if c.got != c.want {
					t.Errorf("%s: benchmark %v, core.Run %v", c.name, c.got, c.want)
				}
			}
			if w.standbys > 0 {
				if !want.FailedOver {
					t.Error("core.Run did not fail over")
				}
				if got.sim["sim_recovery_s"] != want.RecoveryTime.Seconds() {
					t.Errorf("RTO: benchmark %v s, core.Run %v", got.sim["sim_recovery_s"], want.RecoveryTime)
				}
				// The rows carry each stand-by's received and applied SCN,
				// so they pin the promoted stand-by and its watermark.
				if !reflect.DeepEqual(got.repl, want.Replication) {
					t.Errorf("V$REPLICATION: benchmark %+v, core.Run %+v", got.repl, want.Replication)
				}
			}
		})
	}
}

// TestSeedSmoke runs every workload at a tiny size on two seeds, untraced
// and traced: each run must pass its output checks and report every
// metric BENCHMARK.json names.
func TestSeedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames {
		for _, seed := range []int64{1, 2} {
			for _, traced := range []bool{false, true} {
				res, err := run(io.Discard, tiny(workloads[name]), seed, 0, traced, t.TempDir())
				if err != nil {
					t.Fatalf("%s seed %d traced=%v: %v", name, seed, traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s seed %d traced=%v: correct=%v failed=%d attempted=%d",
						name, seed, traced, res.Correct, res.Failed, res.Attempted)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
						t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.name, v, m.unit)
					}
				}
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the benchmark
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d] = %s (%s), want %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "dbench/internal/bufcache.(*Cache).Get", "dbench/internal/txn.(*Txn).Read"}, "bufcache"},
		{[]string{"runtime.chansend1", "dbench/internal/sim.(*Proc).step"}, "sim"},
		{[]string{"dbench/internal/sqladmin.(*Executor).Execute"}, "faults"},
		{[]string{"dbench/internal/trace.(*Counter).Inc"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "sched"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestParseTraces(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      20ms   dbench/internal/redo.(*Manager).Append
             dbench/internal/txn.(*Txn).Commit
-----------+-------------------------------------------------------
         bytes:  256
      10ms   runtime.futex
             runtime.schedule
-----------+-------------------------------------------------------
`)
	self, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	if self["redo"] != 0.02 || self["sched"] != 0.01 || self["txn"] != 0 {
		t.Errorf("self times %v", self)
	}
}
