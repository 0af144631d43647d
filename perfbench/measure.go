package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"syscall"
	"time"

	"dbench/internal/engine"
	"dbench/internal/recovery"
	"dbench/internal/standby"
	"dbench/internal/tpcc"
)

// ---- Host counters ----

// hostSample is the process's cumulative heap allocation and GC count.
type hostSample struct{ allocs, bytes, gcs uint64 }

var hostMetrics = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readHost() hostSample {
	s := make([]metrics.Sample, len(hostMetrics))
	for i, name := range hostMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return hostSample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

func (h hostSample) since(start hostSample) (allocs, bytes, gcs uint64) {
	return h.allocs - start.allocs, h.bytes - start.bytes, h.gcs - start.gcs
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// ---- Spans ----

// span is one host-time interval around a call into a layer.
type span struct {
	ID, Parent    int
	Name          string
	Start, End    time.Duration // host time since the recorder's origin
	Allocs, Bytes uint64
	host          hostSample
}

// spans records host spans in memory. A nil *spans records nothing, so
// untraced runs pay no tracing cost.
type spans struct {
	origin time.Time
	list   []span
	open   []int // indexes of the open spans, innermost last
}

func newSpans() *spans { return &spans{origin: time.Now()} }

func (s *spans) begin(name string) int {
	if s == nil {
		return -1
	}
	parent := 0
	if n := len(s.open); n > 0 {
		parent = s.list[s.open[n-1]].ID
	}
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name,
		Start: time.Since(s.origin), host: readHost()})
	s.open = append(s.open, len(s.list)-1)
	return len(s.list) - 1
}

func (s *spans) end(i int) {
	if s == nil {
		return
	}
	sp := &s.list[i]
	sp.End = time.Since(s.origin)
	sp.Allocs, sp.Bytes, _ = readHost().since(sp.host)
	s.open = s.open[:len(s.open)-1]
}

// do runs fn inside a span named name.
func (s *spans) do(name string, fn func() error) error {
	i := s.begin(name)
	err := fn()
	s.end(i)
	return err
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// events on the host timebase, in microseconds), each carrying its id,
// parent id and allocation deltas.
func (s *spans) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(s.list))
	for _, sp := range s.list {
		events = append(events, event{
			Name: sp.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(sp.Start.Nanoseconds()) / 1e3,
			Dur: float64((sp.End - sp.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": sp.ID, "parent": sp.Parent,
				"allocs": sp.Allocs, "alloc_bytes": sp.Bytes},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ---- Simulated counters ----

// diskStat is the summed activity of a group of simulated disks.
type diskStat struct {
	reads, writes int64
	busy          time.Duration
	n             int
}

// simSnapshot holds the platform's simulated counters at one instant,
// summed over the primary and every stand-by instance.
type simSnapshot struct {
	committed, aborted, lockWaits, lockTimeouts int64
	hits, misses, evictions, dirtyWrites        int64
	ckptWrites                                  int64
	flushes, switches                           int64
	flushedBytes                                int64
	stall                                       time.Duration
	checkpoints                                 int64
	disks                                       map[string]diskStat // data, redo, arch

	committedTxns, offered, served, refused int64 // the TPC-C driver
}

// diskGroup maps a simulated disk to its reported group.
func diskGroup(name string) string {
	switch name {
	case engine.DiskRedo, engine.DiskArch:
		return name
	}
	return "data"
}

func snapshot(in *engine.Instance, drv *tpcc.Driver, cluster *standby.Cluster) simSnapshot {
	s := simSnapshot{disks: map[string]diskStat{}}
	instances := []*engine.Instance{in}
	if cluster != nil {
		for _, sb := range cluster.Standbys() {
			instances = append(instances, sb.Instance())
		}
	}
	for _, in := range instances {
		ts := in.Txns().Stats()
		s.committed += ts.Committed
		s.aborted += ts.Aborted
		s.lockWaits += ts.LockWaits
		s.lockTimeouts += ts.LockTimeouts
		cs := in.Cache().Stats()
		s.hits += cs.Hits
		s.misses += cs.Misses
		s.evictions += cs.Evictions
		s.dirtyWrites += cs.DirtyEvictWrites
		s.ckptWrites += cs.CheckpointWrites
		rs := in.Log().Stats()
		s.flushes += int64(rs.Flushes)
		s.switches += int64(rs.Switches)
		s.flushedBytes += rs.FlushedBytes
		s.stall += rs.StallTime
		s.checkpoints += int64(in.Stats().Checkpoints)
		fs := in.FS()
		for _, name := range fs.DiskNames() {
			d := fs.Disk(name)
			r, w, _, _ := d.Stats()
			g := s.disks[diskGroup(name)]
			g.reads += r
			g.writes += w
			g.busy += d.BusyTotal()
			g.n++
			s.disks[diskGroup(name)] = g
		}
	}
	reg := in.Registry()
	s.committedTxns = int64(len(drv.Commits()))
	s.offered = reg.Value("tpcc.offered")
	s.served = reg.Value("tpcc.served")
	s.refused = reg.Value("tpcc.refused")
	return s
}

// counters fills out with the simulated per-layer counters of the
// measured phase: deltas between the two snapshots, the recovery
// reports' sums and the replication counters. vt is the measured
// phase's virtual duration.
func counters(out map[string]float64, a, b simSnapshot, reports []*recovery.Report, cluster *standby.Cluster, app *tpcc.App, vt time.Duration) {
	out["txn.committed"] = float64(b.committed - a.committed)
	out["txn.aborted"] = float64(b.aborted - a.aborted)
	out["txn.lock_waits"] = float64(b.lockWaits - a.lockWaits)
	out["txn.lock_timeouts"] = float64(b.lockTimeouts - a.lockTimeouts)
	out["tpcc.offered"] = float64(b.offered - a.offered)
	out["tpcc.served"] = float64(b.served - a.served)
	out["tpcc.refused"] = float64(b.refused - a.refused)
	hits, misses := b.hits-a.hits, b.misses-a.misses
	out["cache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	out["cache.misses"] = float64(misses)
	out["cache.evictions"] = float64(b.evictions - a.evictions)
	out["cache.dirty_evict_writes"] = float64(b.dirtyWrites - a.dirtyWrites)
	out["cache.checkpoint_writes"] = float64(b.ckptWrites - a.ckptWrites)
	out["redo.flushes"] = float64(b.flushes - a.flushes)
	out["redo.flushed_mb"] = float64(b.flushedBytes-a.flushedBytes) / (1 << 20)
	out["redo.switches"] = float64(b.switches - a.switches)
	out["redo.stall_s"] = (b.stall - a.stall).Seconds()
	out["engine.checkpoints"] = float64(b.checkpoints - a.checkpoints)
	for _, g := range []string{"data", engine.DiskRedo, engine.DiskArch} {
		da, db := a.disks[g], b.disks[g]
		out["simdisk."+g+".reads"] = float64(db.reads - da.reads)
		out["simdisk."+g+".writes"] = float64(db.writes - da.writes)
		out["simdisk."+g+".busy_frac"] = ratio((db.busy - da.busy).Seconds(), float64(db.n)*vt.Seconds())
	}

	var scanned, applied int
	var restore, replay, blockWrites time.Duration
	for _, r := range reports {
		scanned += r.RecordsScanned
		applied += r.RecordsApplied
		for _, ph := range r.Phases {
			switch ph.Name {
			case recovery.PhaseRestore:
				restore += ph.Duration()
			case recovery.PhaseArchiveReplay, recovery.PhaseRedoReplay:
				replay += ph.Duration()
			case recovery.PhaseBlockWrites:
				blockWrites += ph.Duration()
			}
		}
	}
	out["recovery.records_scanned"] = float64(scanned)
	out["recovery.records_applied"] = float64(applied)
	out["recovery.apply_ratio"] = ratio(float64(applied), float64(scanned))
	out["recovery.restore_vs"] = restore.Seconds()
	out["recovery.replay_vs"] = replay.Seconds()
	out["recovery.block_writes_vs"] = blockWrites.Seconds()

	if cluster != nil {
		frames, bytes, records, syncWaits, _, _ := cluster.Counters()
		out["repl.frames"] = float64(frames)
		out["repl.mb"] = float64(bytes) / (1 << 20)
		out["repl.records"] = float64(records)
		out["repl.sync_waits"] = float64(syncWaits)
		out["repl.lag_records"] = float64(cluster.PromotedLag())
		out["repl.replica_served"] = float64(app.ReplicaServed)
		out["repl.replica_fallback"] = float64(app.ReplicaFallback)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
