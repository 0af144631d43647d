package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"dbench/internal/faults"
	"dbench/internal/sim"
	"dbench/internal/tpcc"
	"dbench/internal/trace"
)

// tinyScale is the smallest campaign scale that still loads, runs TPC-C,
// injects and recovers — sized so the worker-count determinism sweep
// stays affordable inside the regular test run.
func tinyScale() Scale {
	cfg := tpcc.DefaultConfig()
	cfg.Warehouses = 1
	cfg.CustomersPerDistrict = 25
	cfg.Items = 250
	cfg.TerminalsPerWarehouse = 4
	return Scale{
		TPCC:        cfg,
		CacheBlocks: 512,
		Duration:    90 * time.Second,
		InjectTimes: [3]time.Duration{15 * time.Second, 30 * time.Second, 55 * time.Second},
		Tail:        15 * time.Second,
		Seed:        5,
	}
}

func TestWorkers(t *testing.T) {
	cases := []struct{ parallel, n, want int }{
		{1, 10, 1}, // explicit sequential
		{4, 10, 4}, // explicit count
		{8, 3, 3},  // clamped to job count
		{3, 1, 1},  // single job
	}
	for _, tc := range cases {
		if got := Workers(tc.parallel, tc.n); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.parallel, tc.n, got, tc.want)
		}
	}
	// 0 and negative mean "all CPUs": at least one worker, never more
	// than the job count (the CPU count varies by machine).
	for _, parallel := range []int{0, -1} {
		if got := Workers(parallel, 3); got < 1 || got > 3 {
			t.Errorf("Workers(%d, 3) = %d, want within [1,3]", parallel, got)
		}
	}
}

// TestRunSpecsOrderAndProgress runs a small campaign on several workers
// and checks that results come back in enumeration order (not completion
// order) and that progress lines carry a monotonically complete [k/n]
// counter. The progress callback deliberately appends to a plain slice:
// the pool documents mutex-serialized emission, and the race detector
// holds it to that.
func TestRunSpecsOrderAndProgress(t *testing.T) {
	sc := tinyScale()
	sc.Duration = time.Minute
	specs := make([]Spec, 4)
	for i := range specs {
		specs[i] = sc.spec(fmt.Sprintf("pool/run%d", i), Table3Configs[i*3])
	}
	var lines []string
	results, err := RunSpecs(specs, 3, func(line string) { lines = append(lines, line) })
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("got %d results", len(results))
	}
	for i, res := range results {
		if res == nil || res.Spec.Name != specs[i].Name {
			t.Errorf("slot %d: got %v, want %s", i, res, specs[i].Name)
		}
	}
	if len(lines) != len(specs) {
		t.Fatalf("progress lines = %d, want %d: %q", len(lines), len(specs), lines)
	}
	for k, line := range lines {
		prefix := fmt.Sprintf("[%d/%d] ", k+1, len(specs))
		if !strings.HasPrefix(line, prefix) {
			t.Errorf("progress line %d = %q, want prefix %q", k, line, prefix)
		}
	}
}

// TestRunSpecsFailFast: a spec the engine rejects (a 1-group redo log)
// fails the campaign with that error and nil results.
func TestRunSpecsFailFast(t *testing.T) {
	sc := tinyScale()
	bad := RecoveryConfig{Name: "bad", FileSize: 1 << 20, Groups: 1, CheckpointTimeout: time.Minute}
	specs := []Spec{
		sc.spec("pool/bad0", bad),
		sc.spec("pool/bad1", bad),
		sc.spec("pool/bad2", bad),
	}
	results, err := RunSpecs(specs, 2, nil)
	if err == nil {
		t.Fatal("expected error from 1-group redo config")
	}
	if !strings.Contains(err.Error(), "2 groups") {
		t.Errorf("unexpected error: %v", err)
	}
	if results != nil {
		t.Errorf("results should be nil on error, got %v", results)
	}
}

// panicSink panics on the first LGWR flush span, which the LGWR process
// emits, and records the virtual time at which it did.
type panicSink struct{ at sim.Time }

func (s *panicSink) Emit(ev trace.Event) {
	if s.at == 0 && ev.Cat == trace.CatLGWR && ev.Name == "flush" {
		s.at = ev.Start.Add(ev.Dur)
		panic("sink exploded")
	}
}

// TestRunSpecsProcPanicIsRunError: a panic in one run's sim process
// becomes that run's error, naming the process and the virtual time,
// instead of killing the test binary.
func TestRunSpecsProcPanicIsRunError(t *testing.T) {
	sc := tinyScale()
	sc.Duration = time.Minute
	sink := &panicSink{}
	specs := []Spec{
		sc.spec("pool/ok", Table3Configs[0]),
		sc.spec("pool/panic", Table3Configs[0]),
	}
	specs[1].Tracer = trace.New(sink)
	results, err := RunSpecs(specs, 2, nil)
	if err == nil {
		t.Fatal("expected the panicking run's error")
	}
	if results != nil {
		t.Errorf("results should be nil on error, got %v", results)
	}
	if sink.at == 0 {
		t.Fatal("the sink never panicked")
	}
	var pp *sim.ProcPanic
	if !errors.As(err, &pp) || pp.Proc != "LGWR" || pp.At != sink.at {
		t.Fatalf("error does not wrap a *sim.ProcPanic from LGWR at %v: %v", sink.at, err)
	}
	for _, want := range []string{`run "pool/panic"`, `process "LGWR"`, "at " + sink.at.String(), "sink exploded"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q:\n%v", want, err)
		}
	}
}

// TestRunSpecsEmpty: an empty campaign is a no-op.
func TestRunSpecsEmpty(t *testing.T) {
	results, err := RunSpecs(nil, 0, nil)
	if err != nil || results != nil {
		t.Fatalf("empty campaign: results=%v err=%v", results, err)
	}
}

// TestCampaignDeterminismAcrossWorkerCounts is the pool's core
// guarantee: a T3 performance sweep and a T5-style recovery grid produce
// bit-identical row slices whether run sequentially or on four workers.
// (The full QuickScale T3+T5 sweep takes tens of minutes; this runs the
// same code paths at tinyScale with a trimmed grid.)
func TestCampaignDeterminismAcrossWorkerCounts(t *testing.T) {
	seq := tinyScale()
	seq.Parallel = 1
	par := tinyScale()
	par.Parallel = 4

	t3Seq, err := RunTable3(seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	t3Par, err := RunTable3(par, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(t3Seq, t3Par) {
		t.Errorf("Table 3 rows differ across worker counts:\nseq: %+v\npar: %+v", t3Seq, t3Par)
	}

	kinds := []faults.Kind{faults.ShutdownAbort, faults.SetTablespaceOffline}
	configs := []RecoveryConfig{mustConfig("F40G3T10"), mustConfig("F1G3T1")}
	gridSeq, err := runRecoveryGrid(seq, kinds, configs, "T5", nil)
	if err != nil {
		t.Fatal(err)
	}
	gridPar, err := runRecoveryGrid(par, kinds, configs, "T5", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gridSeq, gridPar) {
		t.Errorf("recovery grid rows differ across worker counts:\nseq: %+v\npar: %+v", gridSeq, gridPar)
	}
}
