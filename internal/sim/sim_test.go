package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestKernelSchedulesInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.After(3*time.Second, func() { got = append(got, 3) })
	k.After(1*time.Second, func() { got = append(got, 1) })
	k.After(2*time.Second, func() { got = append(got, 2) })
	k.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != Time(3*time.Second) {
		t.Fatalf("now = %v, want 3s", k.Now())
	}
}

func TestKernelTieBreakIsFIFO(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(Time(time.Second), func() { got = append(got, i) })
	}
	k.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie order = %v", got)
		}
	}
}

func TestRunStopsAtDeadline(t *testing.T) {
	k := NewKernel(1)
	ran := 0
	k.After(1*time.Second, func() { ran++ })
	k.After(5*time.Second, func() { ran++ })
	end := k.Run(Time(2 * time.Second))
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
	if end != Time(2*time.Second) {
		t.Fatalf("end = %v, want 2s", end)
	}
	// The remaining event still fires on a later Run.
	k.Run(Time(10 * time.Second))
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
}

func TestRunEventExactlyAtDeadlineFires(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.After(2*time.Second, func() { ran = true })
	k.Run(Time(2 * time.Second))
	if !ran {
		t.Fatal("event at deadline did not run")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel(1)
	k.After(time.Second, func() {})
	k.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	k.Schedule(0, func() {})
}

func TestProcSleepAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	var wake Time
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Millisecond)
		wake = p.Now()
	})
	k.RunAll()
	if wake != Time(42*time.Millisecond) {
		t.Fatalf("woke at %v, want 42ms", wake)
	}
	if k.Procs() != 0 {
		t.Fatalf("procs = %d, want 0", k.Procs())
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	k := NewKernel(1)
	var trace []string
	k.Go("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(2 * time.Second)
		trace = append(trace, "a2")
	})
	k.Go("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(1 * time.Second)
		trace = append(trace, "b1")
		p.Sleep(2 * time.Second)
		trace = append(trace, "b3")
	})
	k.RunAll()
	want := []string{"a0", "b0", "b1", "a2", "b3"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	k := NewKernel(1)
	var c Cond
	var got []string
	waiter := func(name string) func(p *Proc) {
		return func(p *Proc) {
			c.Wait(p)
			got = append(got, name)
		}
	}
	k.Go("w1", waiter("w1"))
	k.Go("w2", waiter("w2"))
	k.Go("sig", func(p *Proc) {
		p.Sleep(time.Second)
		c.Signal(p.Kernel())
		p.Sleep(time.Second)
		c.Signal(p.Kernel())
	})
	k.RunAll()
	if len(got) != 2 || got[0] != "w1" || got[1] != "w2" {
		t.Fatalf("got %v, want [w1 w2]", got)
	}
}

func TestCondBroadcast(t *testing.T) {
	k := NewKernel(1)
	var c Cond
	woken := 0
	for i := 0; i < 5; i++ {
		k.Go("w", func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	k.Go("b", func(p *Proc) {
		p.Sleep(time.Second)
		c.Broadcast(p.Kernel())
	})
	k.RunAll()
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
	if c.Waiting() != 0 {
		t.Fatalf("waiting = %d, want 0", c.Waiting())
	}
}

func TestResourceSerialisesUse(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(1)
	var finish []Time
	for i := 0; i < 3; i++ {
		k.Go("u", func(p *Proc) {
			r.Use(p, time.Second)
			finish = append(finish, p.Now())
		})
	}
	k.RunAll()
	want := []Time{Time(1 * time.Second), Time(2 * time.Second), Time(3 * time.Second)}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
	if r.BusyTotal() != 3*time.Second {
		t.Fatalf("busy = %v, want 3s", r.BusyTotal())
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(2)
	var finish []Time
	for i := 0; i < 4; i++ {
		k.Go("u", func(p *Proc) {
			r.Use(p, time.Second)
			finish = append(finish, p.Now())
		})
	}
	k.RunAll()
	// Pairs complete together: 1s, 1s, 2s, 2s.
	if finish[1] != Time(time.Second) || finish[3] != Time(2*time.Second) {
		t.Fatalf("finish = %v", finish)
	}
}

func TestKillRunsDefers(t *testing.T) {
	k := NewKernel(1)
	cleaned := false
	p := k.Go("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(time.Hour)
	})
	k.Go("killer", func(q *Proc) {
		q.Sleep(time.Second)
		p.Kill()
	})
	k.RunAll()
	if !cleaned {
		t.Fatal("defer did not run on Kill")
	}
	if !p.Done() {
		t.Fatal("killed proc not done")
	}
	if k.Procs() != 0 {
		t.Fatalf("procs = %d, want 0", k.Procs())
	}
}

func TestKillFinishedProcIsNoop(t *testing.T) {
	k := NewKernel(1)
	p := k.Go("quick", func(p *Proc) {})
	k.RunAll()
	p.Kill()
	k.RunAll()
	if k.Procs() != 0 {
		t.Fatalf("procs = %d", k.Procs())
	}
}

func TestProcPanicSurfacesFromRun(t *testing.T) {
	k := NewKernel(1)
	unwound := false
	k.Go("doomed", func(p *Proc) {
		defer func() { unwound = true }()
		p.Sleep(3 * time.Second)
		panic("boom")
	})
	bystander := k.Go("bystander", func(p *Proc) { p.Sleep(time.Hour) })
	var pp *ProcPanic
	func() {
		defer func() { pp, _ = recover().(*ProcPanic) }()
		k.Run(Time(time.Minute))
	}()
	if pp == nil {
		t.Fatal("Run did not panic with a *ProcPanic")
	}
	if pp.Proc != "doomed" || pp.At != Time(3*time.Second) || pp.Value != "boom" {
		t.Fatalf("ProcPanic = {%q %v %v}, want {doomed 3s boom}", pp.Proc, pp.At, pp.Value)
	}
	if !strings.Contains(string(pp.Stack), "TestProcPanicSurfacesFromRun") {
		t.Fatalf("stack does not reach the panicking function:\n%s", pp.Stack)
	}
	for _, want := range []string{`"doomed"`, "3s", "boom", "TestProcPanicSurfacesFromRun"} {
		if !strings.Contains(pp.Error(), want) {
			t.Fatalf("Error() = %q, missing %q", pp.Error(), want)
		}
	}
	if !unwound {
		t.Fatal("the panicking process's defers did not run")
	}
	// The kernel stays usable: the other process can still be torn down.
	k.KillAll()
	if !bystander.Done() || k.Procs() != 0 {
		t.Fatalf("after KillAll: bystander done=%v, procs=%d", bystander.Done(), k.Procs())
	}
}

func TestFinishReturnsFirstProcPanic(t *testing.T) {
	k := NewKernel(1)
	k.Go("first", func(p *Proc) {
		p.Sleep(time.Second)
		panic("first")
	})
	k.Go("second", func(p *Proc) {
		defer func() { panic("second, while unwinding") }()
		p.Sleep(time.Hour)
	})
	k.Go("third", func(p *Proc) { p.Sleep(time.Hour) })
	err := k.Finish(Time(time.Minute))
	var pp *ProcPanic
	if !errors.As(err, &pp) || pp.Proc != "first" || pp.At != Time(time.Second) {
		t.Fatalf("Finish = %v, want the *ProcPanic of \"first\" at 1s", err)
	}
	if k.Procs() != 0 {
		t.Fatalf("procs = %d after Finish, want 0", k.Procs())
	}
	if err := NewKernel(1).Finish(Time(time.Minute)); err != nil {
		t.Fatalf("Finish on a clean run = %v", err)
	}
	// A panic that is not a process's propagates unchanged.
	k = NewKernel(1)
	k.After(time.Second, func() { panic("kernel callback") })
	defer func() {
		if r := recover(); r != "kernel callback" {
			t.Fatalf("recovered %v, want the callback's own panic", r)
		}
	}()
	k.Finish(Time(time.Minute))
}

func TestKillAllReleasesEveryCoroutine(t *testing.T) {
	start := runtime.NumGoroutine()
	k := NewKernel(1)
	var c Cond
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			k.Go("waiter", func(p *Proc) { c.Wait(p) })
		} else {
			k.Go("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
		}
	}
	k.Run(Time(time.Second))
	if k.Procs() != 100 || c.Waiting() != 50 {
		t.Fatalf("procs = %d, cond waiters = %d; want 100 and 50", k.Procs(), c.Waiting())
	}
	// Each blocked process holds a goroutine (the slack allows for
	// runtime or test-framework goroutines ending meanwhile).
	if n := runtime.NumGoroutine(); n < start+90 {
		t.Fatalf("goroutines = %d with 100 blocked processes, started at %d", n, start)
	}
	k.KillAll()
	if k.Procs() != 0 {
		t.Fatalf("procs = %d after KillAll", k.Procs())
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Fatalf("goroutines = %d after KillAll, want %d", n, start)
	}
}

// BenchmarkProcSwitch measures one Sleep(0) round trip between two
// processes: the process yields, the kernel fires the other's wake-up
// event and resumes it. CI fails if it allocates.
func BenchmarkProcSwitch(b *testing.B) {
	k := NewKernel(1)
	for _, n := range []int{(b.N + 1) / 2, b.N / 2} {
		k.Go("ping", func(p *Proc) {
			for range n {
				p.Sleep(0)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.RunAll()
}

func TestDeterministicRand(t *testing.T) {
	run := func() []int64 {
		k := NewKernel(99)
		var vals []int64
		k.Go("r", func(p *Proc) {
			for i := 0; i < 5; i++ {
				vals = append(vals, p.Kernel().Rand().Int63())
				p.Sleep(time.Millisecond)
			}
		})
		k.RunAll()
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestStopHaltsRun(t *testing.T) {
	k := NewKernel(1)
	ran := 0
	k.After(time.Second, func() { ran++; k.Stop() })
	k.After(2*time.Second, func() { ran++ })
	k.Run(Time(time.Hour))
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
}

// Property: for any set of non-negative delays, processes wake exactly at
// start+delay and the clock ends at the max delay.
func TestQuickSleepExactness(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		if len(delaysMs) == 0 {
			return true
		}
		if len(delaysMs) > 64 {
			delaysMs = delaysMs[:64]
		}
		k := NewKernel(7)
		wake := make([]Time, len(delaysMs))
		for i, ms := range delaysMs {
			i, d := i, time.Duration(ms)*time.Millisecond
			k.Go("s", func(p *Proc) {
				p.Sleep(d)
				wake[i] = p.Now()
			})
		}
		k.RunAll()
		var maxT Time
		for i, ms := range delaysMs {
			want := Time(time.Duration(ms) * time.Millisecond)
			if wake[i] != want {
				return false
			}
			if want > maxT {
				maxT = want
			}
		}
		return k.Now() == maxT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a capacity-1 resource with n users of service s finishes the
// last user at exactly n*s regardless of arrival interleaving at t=0.
func TestQuickResourceThroughput(t *testing.T) {
	f := func(n uint8, svcMs uint8) bool {
		users := int(n%16) + 1
		svc := time.Duration(int(svcMs)+1) * time.Millisecond
		k := NewKernel(3)
		r := NewResource(1)
		var last Time
		for i := 0; i < users; i++ {
			k.Go("u", func(p *Proc) {
				r.Use(p, svc)
				last = p.Now()
			})
		}
		k.RunAll()
		return last == Time(time.Duration(users)*svc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
