// The recovery apply pipeline. Every recovery kind that replays redo —
// instance, media, tablespace, point-in-time and failover — runs its
// forward and undo passes through one streamApply. With
// RecoveryParallelism = N > 1 the redo stream is partitioned by block —
// storage.BlockRef.Route, the same hash the buffer cache shards with —
// onto N apply workers running as simulation processes, while the
// coordinator scans archives and the online log ahead of them. One block
// maps to exactly one worker and each worker consumes its queue in
// arrival order, so the per-block SCN apply order is the stream order;
// workers charge their apply CPU against the instance's CPU slots, so the
// speedup is bounded by the configured CPU count. The crew drains to a
// barrier before every DDL replay and phase transition, which keeps the
// phase timeline contiguous-by-construction and nests worker spans inside
// their phase's span.
//
// At N = 1 there is no crew: no worker processes are started and data
// records apply inline on the coordinator, charged through the same
// chunkedSleep as the scan bookkeeping. Nothing can overlap the scan, so
// the redo range is read in full before it is fed (no pipelining): fed
// during the scan, the apply charges would land in the archive-replay
// phase instead of redo replay. The one chunked-CPU accumulator also
// carries the forward pass's leftover charge into the undo pass.
package recovery

import (
	"fmt"
	"time"

	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/storage"
	"dbench/internal/trace"
)

// workerCount returns the recovery apply fan-out (1 = no crew), read
// from the dynamic configuration at recovery start so an ALTER SYSTEM
// SET recovery_parallelism applies to the next recovery.
func (m *Manager) workerCount() int {
	if n := m.in.RecoveryParallelism(); n > 1 {
		return n
	}
	return 1
}

// workerFor routes a block to one of n apply workers via the shared
// block routing hash. A block always lands on the same worker, so
// per-worker FIFO queues preserve each block's SCN order.
func workerFor(ref storage.BlockRef, n int) int {
	return int(ref.Route() % uint32(n))
}

// applyChunk mirrors chunkedSleep's threshold: workers pay their accrued
// apply CPU once it reaches this much, so huge redo streams do not flood
// the event queue with per-record sleeps.
const applyChunk = 50 * time.Millisecond

// routed is one redo record queued for a worker, its block already
// resolved by the coordinator (catalog lookups stay on the coordinator
// so DDL replay keeps its serial semantics).
type routed struct {
	rec *redo.Record
	ref storage.BlockRef
}

// applyCrew is a set of redo-apply worker processes fed by the recovery
// coordinator. pending counts records routed but not yet applied and
// charged; drain waits for it to reach zero — the barrier used before
// DDL replay, the undo pass and every phase transition. The kernel runs
// one process at a time, so the crew's shared state (Report counters,
// touched set, queues) needs no locking, and execution stays
// deterministic for a given seed.
type applyCrew struct {
	m       *Manager
	rep     *Report
	tl      *timeline
	n       int
	touched map[storage.BlockRef]bool

	workers []*applyWorker
	pending int
	idle    sim.Cond
	closed  bool
	wg      sim.WaitGroup
}

type applyWorker struct {
	id    int
	queue []routed
	work  sim.Cond
	span  trace.SpanID
}

// newApplyCrew starts n apply workers on the instance's kernel; applied
// blocks are recorded in touched.
func (m *Manager) newApplyCrew(p *sim.Proc, rep *Report, tl *timeline, n int, touched map[storage.BlockRef]bool) *applyCrew {
	c := &applyCrew{m: m, rep: rep, tl: tl, n: n, touched: touched}
	k := p.Kernel()
	for i := 0; i < n; i++ {
		w := &applyWorker{id: i}
		c.workers = append(c.workers, w)
		c.wg.Add(1)
		k.Go(fmt.Sprintf("recovery-apply-%d", i), func(wp *sim.Proc) {
			defer c.wg.Done(wp.Kernel())
			c.runWorker(wp, w)
		})
	}
	return c
}

func (c *applyCrew) runWorker(p *sim.Proc, w *applyWorker) {
	k := p.Kernel()
	cost := c.m.in.Config().Cost.RedoApplyPerRecord
	cpu := c.m.in.CPU()
	var owed time.Duration
	done := 0
	// settle pays the accrued CPU and only then publishes the consumed
	// records, so drain returns strictly after every routed record has
	// been applied and its cost charged.
	settle := func() {
		if owed > 0 {
			cpu.Use(p, owed)
			owed = 0
		}
		if done > 0 {
			c.pending -= done
			done = 0
			if c.pending == 0 {
				c.idle.Broadcast(k)
			}
		}
	}
	for {
		if len(w.queue) == 0 {
			settle()
			if len(w.queue) > 0 {
				// More work arrived while paying the CPU debt.
				continue
			}
			c.endWorkerSpan(p, w)
			if c.closed {
				return
			}
			w.work.Wait(p)
			continue
		}
		c.beginWorkerSpan(p, w)
		batch := w.queue
		w.queue = nil
		for i := range batch {
			it := &batch[i]
			if applyRecord(c.rep, c.touched, it.rec, it.ref) {
				owed += cost
			}
			done++
			if owed >= applyChunk {
				cpu.Use(p, owed)
				owed = 0
			}
		}
	}
}

// beginWorkerSpan opens the worker's segment span as a child of the
// current phase span; endWorkerSpan closes it when the worker drains.
// A worker busy across several dispatches gets one span per busy
// stretch, always nested inside the phase it worked under.
func (c *applyCrew) beginWorkerSpan(p *sim.Proc, w *applyWorker) {
	if w.span != 0 {
		return
	}
	w.span = c.tl.tracer().BeginChild(p.Now(), trace.CatRecovery, "recovery",
		"apply worker", c.tl.currentSpan(), trace.I("worker", int64(w.id)))
}

func (c *applyCrew) endWorkerSpan(p *sim.Proc, w *applyWorker) {
	if w.span == 0 {
		return
	}
	c.tl.tracer().End(p.Now(), w.span)
	w.span = 0
}

// dispatch routes one record to its block's worker.
func (c *applyCrew) dispatch(p *sim.Proc, rec *redo.Record, ref storage.BlockRef) {
	w := c.workers[workerFor(ref, c.n)]
	w.queue = append(w.queue, routed{rec: rec, ref: ref})
	c.pending++
	w.work.Signal(p.Kernel())
}

// drain blocks until every routed record has been applied and charged.
func (c *applyCrew) drain(p *sim.Proc) {
	for c.pending > 0 {
		c.idle.Wait(p)
	}
}

// close drains outstanding work and shuts the workers down, waiting for
// their processes to exit so their spans are closed before the next
// phase opens. Idempotent.
func (c *applyCrew) close(p *sim.Proc) {
	if c.closed {
		return
	}
	c.drain(p)
	c.shutdown(p)
}

// abort shuts the crew down without the drain barrier (error paths);
// workers still finish whatever is already queued before exiting.
func (c *applyCrew) abort(p *sim.Proc) {
	if c.closed {
		return
	}
	c.shutdown(p)
}

func (c *applyCrew) shutdown(p *sim.Proc) {
	c.closed = true
	k := p.Kernel()
	for _, w := range c.workers {
		w.work.Broadcast(k)
	}
	c.wg.Wait(p)
}

// applyRecord replays one data record onto its durable image; a record
// that changed the image is counted in rep and its block marked touched.
// It reports whether the record was applied (and so owes its apply CPU).
func applyRecord(rep *Report, touched map[storage.BlockRef]bool, rec *redo.Record, ref storage.BlockRef) bool {
	if !ApplyToImage(rec, ref) {
		return false
	}
	rep.RecordsApplied++
	rep.BytesApplied += rec.Size()
	touched[ref] = true
	return true
}

// streamApply is the coordinator side of the apply pipeline: it scans
// redo in SCN order (batch by batch when the scan itself is pipelined,
// e.g. archive by archive), keeps bookkeeping and catalog work on the
// coordinator, and applies data changes — routed to the crew, or inline
// when there is none. Loser candidacy is decided with the catalog state
// at scan position and filtered against the full stream's commit/abort
// set once the scan completes: a candidate's transaction may commit in a
// later batch.
type streamApply struct {
	m    *Manager
	rep  *Report
	tl   *timeline
	n    int
	crew *applyCrew // nil at n = 1: records apply inline
	// cs charges the coordinator's CPU (cost per applied record): scan
	// bookkeeping, DDL replay, inline applies and the undo pass.
	cs             *chunkedSleep
	cost           time.Duration
	touched        map[storage.BlockRef]bool
	includeOffline bool
	// only restricts the pass to a set of datafiles (media recovery of
	// one file or one tablespace); nil means a whole-database pass
	// (instance / point-in-time). Used for membership only, never
	// iterated, so map order cannot perturb determinism.
	only     map[*storage.Datafile]bool
	finished map[redo.TxnID]bool
	// cands are the applied data records that may need the undo pass, in
	// stream order.
	cands []*redo.Record
}

// newStreamApply opens an apply pass at fan-out n, starting the crew
// only when n > 1.
func (m *Manager) newStreamApply(p *sim.Proc, rep *Report, tl *timeline, includeOffline bool, only map[*storage.Datafile]bool, n int) *streamApply {
	sa := &streamApply{
		m: m, rep: rep, tl: tl, n: n,
		cs:             &chunkedSleep{p: p},
		cost:           m.in.Config().Cost.RedoApplyPerRecord,
		touched:        make(map[storage.BlockRef]bool),
		includeOffline: includeOffline,
		only:           only,
		finished:       make(map[redo.TxnID]bool),
	}
	if n > 1 {
		sa.crew = m.newApplyCrew(p, rep, tl, n, sa.touched)
	}
	return sa
}

// scan reads redo from SCN `from` to the end of redo into sink (sa.feed
// or a filter in front of it). With a crew the scan is pipelined, each
// segment handed over as soon as it is read; without one the whole range
// is read first and handed over once, so no apply charge lands in the
// archive-replay phase.
func (sa *streamApply) scan(p *sim.Proc, from redo.SCN, sink func(*sim.Proc, []redo.Record)) error {
	if sa.crew != nil {
		_, err := sa.m.redoRange(p, sa.rep, from, sa.tl, sink)
		if err != nil {
			sa.crew.abort(p)
		}
		return err
	}
	recs, err := sa.m.redoRange(p, sa.rep, from, sa.tl, nil)
	if err != nil {
		return err
	}
	sink(p, recs)
	return nil
}

// covers reports whether a block takes part in the pass: one of the
// target files for media recovery, else any participating file.
func (sa *streamApply) covers(ref storage.BlockRef) bool {
	if sa.only != nil {
		return sa.only[ref.File]
	}
	return participates(ref.File, sa.includeOffline)
}

// apply replays one data record: routed to its block's worker when a
// crew exists, else applied inline on the coordinator.
func (sa *streamApply) apply(p *sim.Proc, rec *redo.Record, ref storage.BlockRef) {
	if sa.crew != nil {
		sa.crew.dispatch(p, rec, ref)
		return
	}
	if applyRecord(sa.rep, sa.touched, rec, ref) {
		sa.cs.add(sa.cost)
	}
}

// feed scans one batch of redo records in SCN order. DDL is a barrier:
// the crew drains before the dictionary changes, so refFor resolves
// every record against the catalog state at its stream position.
func (sa *streamApply) feed(p *sim.Proc, recs []redo.Record) {
	sa.tl.setWorkers(sa.n)
	// Mark the batch's commits and aborts first: a change whose
	// transaction finishes by the end of the batch is never a loser, so
	// it need not become an undo candidate.
	for i := range recs {
		if recs[i].Op == redo.OpCommit || recs[i].Op == redo.OpAbort {
			sa.finished[recs[i].Txn] = true
		}
	}
	for i := range recs {
		rec := &recs[i]
		sa.rep.RecordsScanned++
		if sa.only != nil {
			// Media recovery: every scanned record costs a quarter
			// charge; only the target files' changes are routed.
			sa.cs.add(sa.cost / 4)
			if !rec.IsDataChange() {
				continue
			}
			ref, ok := sa.m.refFor(rec)
			if !ok || !sa.covers(ref) {
				continue
			}
			sa.apply(p, rec, ref)
			// A transaction still live in the open instance finishes on
			// its own. Read after the apply: an inline apply's charge may
			// yield to live transactions.
			if !sa.finished[rec.Txn] && !sa.m.in.Txns().IsActive(rec.Txn) {
				sa.cands = append(sa.cands, rec)
			}
			continue
		}
		if rec.Op == redo.OpDDL {
			if sa.crew != nil {
				sa.crew.drain(p)
			}
			sa.cs.add(sa.cost)
			ReplayDDL(sa.m.in.Catalog(), sa.m.in.DB(), rec.Meta)
			continue
		}
		if !rec.IsDataChange() {
			sa.cs.add(sa.cost / 4)
			continue
		}
		ref, ok := sa.m.refFor(rec)
		if !ok || !sa.covers(ref) {
			continue
		}
		sa.apply(p, rec, ref)
		if !sa.finished[rec.Txn] {
			sa.cands = append(sa.cands, rec)
		}
	}
}

// finish completes the pass: final drain and worker shutdown (when there
// is a crew), then the undo pass — on the coordinator, re-resolving each
// record against the post-DDL catalog — and the block-write phase fanned
// out across the pass's fan-out. Without a crew the forward pass's
// unpaid CPU charge carries over into the undo pass; with one it is paid
// before the barrier, so the undo pass starts with an empty accumulator.
func (sa *streamApply) finish(p *sim.Proc, stamp redo.SCN) error {
	if sa.crew != nil {
		sa.cs.flush()
		sa.crew.close(p)
	}
	sa.tl.phase(p, PhaseUndoRollback)
	losers := make(map[redo.TxnID]bool)
	var loserRecs []*redo.Record
	for _, rec := range sa.cands {
		if sa.finished[rec.Txn] {
			continue
		}
		losers[rec.Txn] = true
		loserRecs = append(loserRecs, rec)
	}
	for i := len(loserRecs) - 1; i >= 0; i-- {
		rec := loserRecs[i]
		ref, ok := sa.m.refFor(rec)
		if !ok || !sa.covers(ref) {
			continue
		}
		UndoToImage(rec, ref, stamp)
		sa.touched[ref] = true
		sa.cs.add(sa.cost)
	}
	sa.rep.LosersRolledBack = len(losers)
	sa.cs.flush()
	sa.tl.phase(p, PhaseBlockWrites)
	sa.tl.setWorkers(sa.n)
	return sa.m.chargeBlockPassesParallel(p, sa.touched, sa.n, sa.tl)
}

// chargeBlockPassesParallel fans the recovery block read+write passes
// out across n IO workers, whole files at a time: a file's blocks stay
// one sorted sequential pass, and different files — spread over the data
// disks — proceed concurrently. Only the I/O charging is concurrent; the
// images were already written by the apply and undo passes.
func (m *Manager) chargeBlockPassesParallel(p *sim.Proc, touched map[storage.BlockRef]bool, n int, tl *timeline) error {
	if n <= 1 {
		return m.chargeBlockPasses(p, touched)
	}
	refs := sortedRefs(touched)
	parts := make([][]storage.BlockRef, n)
	for _, ref := range refs {
		i := int(ref.File.ShardHint() % uint32(n))
		parts[i] = append(parts[i], ref)
	}
	k := p.Kernel()
	var wg sim.WaitGroup
	var firstErr error
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		i, part := i, part
		wg.Add(1)
		k.Go(fmt.Sprintf("recovery-io-%d", i), func(wp *sim.Proc) {
			defer wg.Done(wp.Kernel())
			span := tl.tracer().BeginChild(wp.Now(), trace.CatRecovery, "recovery",
				"io worker", tl.currentSpan(), trace.I("worker", int64(i)))
			err := blockPass(wp, part)
			tl.tracer().End(wp.Now(), span, trace.I("blocks", int64(len(part))))
			if err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	wg.Wait(p)
	return firstErr
}
