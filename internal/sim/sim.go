// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock and runs simulated processes. A
// process is an ordinary Go function running as an iter.Pull coroutine:
// the kernel resumes it with the coroutine's next and it hands control
// back through yield whenever it blocks on Sleep, a Cond, or a Resource,
// so exactly one process (or the kernel itself) runs at any instant and
// a switch is a direct coroutine hand-off, not a trip through the Go
// scheduler. Events at equal virtual times fire in scheduling order, so
// runs are fully reproducible.
//
// A panic in a process unwinds that process (its deferred functions
// run) and then surfaces on the goroutine that called Run, RunAll or
// KillAll as a *ProcPanic naming the process, the virtual time and the
// original value and stack. Runners recover it into the run's error, so
// one failing simulation does not take down a campaign of them.
//
// The kernel is the substrate for everything else in this repository: the
// simulated disks, the database engine's background processes, the TPC-C
// terminals, and the fault injector are all sim processes.
package sim

import (
	"container/heap"
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"
	"sort"
	"time"
)

// Time is an instant of virtual time, measured as a duration since the
// start of the simulation.
type Time time.Duration

// Duration re-exports time.Duration for callers that configure the kernel.
type Duration = time.Duration

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return time.Duration(t).String() }

// event is a scheduled callback.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; construct with NewKernel.
type Kernel struct {
	now     Time
	seq     uint64
	events  eventHeap
	rng     *rand.Rand
	procs   int
	live    map[*Proc]struct{}
	nextPID uint64
	stopped bool
	// free holds fired events for Schedule to reuse, so the steady
	// state schedules without allocating.
	free []*event
}

// NewKernel returns a kernel with its clock at zero and a deterministic
// random source derived from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		rng:  rand.New(rand.NewSource(seed)),
		live: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. It must only be
// used from simulation processes (never concurrently).
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Schedule registers fn to run at absolute virtual time at. Scheduling in
// the past panics: it indicates a logic error in the caller.
func (k *Kernel) Schedule(at Time, fn func()) {
	if at < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, k.now))
	}
	k.seq++
	var e *event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		e = new(event)
	}
	e.at, e.seq, e.fn = at, k.seq, fn
	heap.Push(&k.events, e)
}

// fire advances the clock to e and runs its callback. e goes back on the
// free list first, so the callback's own Schedule can reuse it and a
// panic out of the callback does not lose it.
func (k *Kernel) fire(e *event) {
	k.now = e.at
	fn := e.fn
	e.fn = nil
	k.free = append(k.free, e)
	fn()
}

// After registers fn to run d from now.
func (k *Kernel) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k.Schedule(k.now.Add(d), fn)
}

// Stop makes Run return once the currently executing event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events in time order until the event queue drains, the
// clock would pass until, or Stop is called. It returns the virtual time at
// which it stopped. Events scheduled exactly at until still run.
func (k *Kernel) Run(until Time) Time {
	k.stopped = false
	for len(k.events) > 0 && !k.stopped {
		if k.events[0].at > until {
			k.now = until
			return k.now
		}
		k.fire(heap.Pop(&k.events).(*event))
	}
	if k.now < until && !k.stopped {
		k.now = until
	}
	return k.now
}

// RunAll executes events until the queue drains or Stop is called.
func (k *Kernel) RunAll() Time {
	k.stopped = false
	for len(k.events) > 0 && !k.stopped {
		k.fire(heap.Pop(&k.events).(*event))
	}
	return k.now
}

// KillAll terminates every live process (in creation order) and runs the
// kernel until they have unwound. Call it when a simulation ends so that
// blocked process coroutines — and everything their closures retain — can
// be collected; otherwise each finished simulation leaks its whole state.
func (k *Kernel) KillAll() {
	procs := make([]*Proc, 0, len(k.live))
	for p := range k.live {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].pid < procs[j].pid })
	for _, p := range procs {
		p.Kill()
	}
	k.RunAll()
}

// Finish runs the simulation like Run and then tears it down with
// KillAll. A process panic ends the run early: Finish kills the remaining
// processes and returns the *ProcPanic as its error (the first one, should
// killed processes panic again while unwinding). Any other panic
// propagates.
func (k *Kernel) Finish(until Time) error {
	err := catch(func() {
		k.Run(until)
		k.KillAll()
	})
	if err != nil {
		// Each panic during a KillAll ends only the process that raised
		// it; kill again until one KillAll completes.
		for catch(k.KillAll) != nil {
		}
	}
	return err
}

// catch runs f and returns the *ProcPanic it panics with, re-raising any
// other panic.
func catch(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			pp, ok := r.(*ProcPanic)
			if !ok {
				panic(r)
			}
			err = pp
		}
	}()
	f()
	return nil
}

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return len(k.events) }

// Procs reports the number of live processes (started and not finished).
func (k *Kernel) Procs() int { return k.procs }

// Proc is a simulated process: a coroutine that runs only when the kernel
// resumes it and that yields control back whenever it blocks.
type Proc struct {
	k     *Kernel
	name  string
	pid   uint64
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// wake is the method value p.step, built once so that scheduling a
	// wake-up does not allocate a closure.
	wake   func()
	done   bool
	killed bool
}

// ProcPanic is the value Run, RunAll and KillAll panic with when a
// process panics: the process has unwound (its deferred functions ran)
// and the kernel's clock stands at the instant of the panic.
type ProcPanic struct {
	Proc  string // process name given to Go
	At    Time   // virtual time of the panic
	Value any    // the value the process panicked with
	Stack []byte // the process's stack at the panic
}

func (e *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked at %v: %v\n%s", e.Proc, e.At, e.Value, e.Stack)
}

// Go starts fn as a simulated process. fn begins executing at the current
// virtual time (as a scheduled event) and may call the blocking primitives
// on its Proc. Go itself never blocks.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	k.nextPID++
	p := &Proc{k: k, name: name, pid: k.nextPID}
	p.wake = p.step
	k.procs++
	k.live[p] = struct{}{}
	// The coroutine's stop is not kept: a process ends by returning or
	// through Kill, both of which run it to completion.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.done = true
			k.procs--
			delete(k.live, p)
			if r := recover(); r != nil {
				if _, ok := r.(killSignal); ok {
					return
				}
				panic(&ProcPanic{Proc: name, At: k.now, Value: r, Stack: debug.Stack()})
			}
		}()
		fn(p)
	})
	k.After(0, p.wake)
	return p
}

type killSignal struct{}

// step resumes the process and returns when it blocks or finishes. It
// runs on the kernel's goroutine; a panic in the process comes out of it.
func (p *Proc) step() {
	if p.done {
		return
	}
	p.next()
}

// block suspends the process and returns control to the kernel. It must
// be called from the process itself. The process resumes when some event
// calls step.
func (p *Proc) block() {
	p.yield(struct{}{})
	if p.killed {
		panic(killSignal{})
	}
}

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.k.Schedule(p.k.now.Add(d), p.wake)
	p.block()
}

// Yield suspends the process until all events already scheduled for the
// current instant have run.
func (p *Proc) Yield() { p.Sleep(0) }

// Kill terminates the process the next time it would resume. A killed
// process unwinds via panic/recover, so its deferred functions run. Killing
// a finished process is a no-op. Kill must be called from the kernel
// goroutine or another process, never from the target process itself.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	p.k.After(0, p.wake)
}

// Cond is a condition variable for simulated processes. The zero value is
// ready to use once associated with a kernel via Wait's process argument.
type Cond struct {
	waiters []*Proc
}

// Wait suspends p until another process calls Signal or Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.block()
}

// Signal wakes the earliest waiter, if any, scheduling it at the current
// instant on k.
func (c *Cond) Signal(k *Kernel) {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	c.waiters = c.waiters[1:]
	k.After(0, w.wake)
}

// Broadcast wakes all waiters in FIFO order.
func (c *Cond) Broadcast(k *Kernel) {
	for _, w := range c.waiters {
		k.After(0, w.wake)
	}
	c.waiters = nil
}

// Waiting reports the number of processes blocked on c.
func (c *Cond) Waiting() int { return len(c.waiters) }

// Resource is a FIFO server with fixed capacity, used to model contended
// devices such as disks or a CPU. Acquire blocks while all slots are busy.
type Resource struct {
	capacity int
	inUse    int
	queue    Cond

	// Busy accumulates total busy time across slots, for utilisation
	// reporting.
	busySince map[*Proc]Time
	busyTotal Duration
}

// NewResource returns a resource with the given number of slots.
func NewResource(capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{capacity: capacity, busySince: make(map[*Proc]Time)}
}

// Acquire obtains a slot, blocking in FIFO order while none is free.
func (r *Resource) Acquire(p *Proc) {
	for r.inUse >= r.capacity {
		r.queue.Wait(p)
	}
	r.inUse++
	r.busySince[p] = p.Now()
}

// Release frees the slot held by p and wakes the next waiter.
func (r *Resource) Release(p *Proc) {
	if since, ok := r.busySince[p]; ok {
		r.busyTotal += p.Now().Sub(since)
		delete(r.busySince, p)
	}
	r.inUse--
	r.queue.Signal(p.k)
}

// Use acquires the resource, holds it for service virtual time, and
// releases it. It models a single FIFO-queued service demand. The release
// is deferred so that a killed process (instance crash) does not leak the
// slot and wedge the device forever.
func (r *Resource) Use(p *Proc, service Duration) {
	r.Acquire(p)
	defer r.Release(p)
	p.Sleep(service)
}

// InUse reports the number of busy slots.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen reports the number of blocked acquirers.
func (r *Resource) QueueLen() int { return r.queue.Waiting() }

// BusyTotal reports accumulated busy time (completed holds only).
func (r *Resource) BusyTotal() Duration { return r.busyTotal }
