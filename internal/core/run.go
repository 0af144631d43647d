package core

import (
	"fmt"
	"math/rand"
	"time"

	"dbench/internal/backup"
	"dbench/internal/control"
	"dbench/internal/engine"
	"dbench/internal/faults"
	"dbench/internal/metrics"
	"dbench/internal/monitor"
	"dbench/internal/recovery"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/sqladmin"
	"dbench/internal/standby"
	"dbench/internal/tpcc"
	"dbench/internal/trace"
)

// Spec fully describes one benchmark experiment: the TPC-C workload, the
// recovery configuration under test, and (optionally) one operator fault
// with its injection instant.
type Spec struct {
	// Name labels the experiment in reports.
	Name string
	// Seed drives every random choice, making runs reproducible.
	Seed int64

	// Recovery is the configuration under test (a Table 3 row).
	Recovery RecoveryConfig
	// Archive enables the archive log mechanism (§5.2).
	Archive bool
	// Standby adds a stand-by database fed by archive shipping (§5.3).
	Standby bool

	// Standbys adds a streaming-replication cluster: that many first-tier
	// stand-bys fed by continuous redo streaming (plus ReplCascade
	// cascaded ones), with commit acknowledgement per ReplMode. A primary
	// crash (ShutdownAbort) then fails over to the most advanced stand-by
	// instead of recovering in place. Mutually independent from Standby
	// (the archive-shipping configuration).
	Standbys int
	// ReplMode is the commit-acknowledgement protocol (sync or async).
	ReplMode standby.Mode
	// ReplLink is the primary→stand-by network profile (zero: LinkLAN).
	ReplLink sim.LinkSpec
	// ReplCascade adds that many second-tier stand-bys fed from the
	// first stand-by's reception.
	ReplCascade int
	// ReplicaReads routes this fraction of the read-only TPC-C traffic
	// (Order-Status, Stock-Level) to the first stand-by's snapshot.
	ReplicaReads float64

	// TPCC scales the workload.
	TPCC tpcc.Config
	// CacheBlocks sizes the buffer cache.
	CacheBlocks int
	// Cost is the simulated platform cost model.
	Cost engine.CostModel
	// CPUs sizes the platform's CPU pool serving per-row-op costs
	// (0 = 1, the paper's single-server setup). The scaling experiment
	// grows it with the warehouse count.
	CPUs int
	// DataDisks is the number of data disks (0 = 2, the paper's layout).
	// The tablespaces spread over them; more warehouses want more
	// spindles.
	DataDisks int
	// RecoveryWorkers is the parallel-recovery fan-out threaded into
	// engine.Config.RecoveryParallelism (<=1 = serial, the default).
	// Recovery results are identical for every value; only the recovery
	// time changes.
	RecoveryWorkers int

	// Duration is the measured workload run length (paper: 20 minutes).
	Duration time.Duration
	// Fault, when non-nil, is injected InjectAt after the workload
	// starts; recovery begins after Detection.
	Fault     *faults.Fault
	InjectAt  time.Duration
	Detection time.Duration
	// ForcePhysical disables the flashback remedy for single-table
	// logical faults, forcing the physical point-in-time baseline (the
	// control arm of the logical-vs-physical comparison).
	ForcePhysical bool
	// TailAfterRecovery, when positive, ends the run that long after
	// the recovery completes instead of running the full Duration —
	// recovery-time experiments do not need the remaining workload
	// (performance is measured on fault-free runs).
	TailAfterRecovery time.Duration

	// Tracer, when set, receives this run's instrumentation events
	// (spans and instants on the run's own virtual timebase). At most
	// one spec per campaign should carry a tracer: runs share nothing
	// else, and interleaving several virtual timelines into one sink
	// would be meaningless. Nil disables tracing at zero cost.
	Tracer *trace.Tracer

	// SampleInterval enables the MMON workload repository on this run's
	// instance (engine.Config.SampleInterval); zero disables monitoring
	// at zero cost. Like Tracer, at most one spec per campaign should
	// sample — the repository rides on a single run's virtual timeline.
	SampleInterval time.Duration
	// RepositoryDepth bounds the retained samples (0 = monitor default).
	RepositoryDepth int
	// OnRepository, when set, receives the run's workload repository
	// after the simulation has fully stopped (dbench uses it to export
	// -stats / -awr). Called once per Run, only when sampling is on.
	OnRepository func(*monitor.Repository)

	// Control, when non-nil, attaches the self-tuning controller
	// (internal/control) to the run's instance for the measured phase.
	// Requires SampleInterval > 0 — the repository is the controller's
	// sensor. The controller lands in Result.Control.
	Control *control.Config
	// Phases shapes the offered load over time (tpcc.DriverConfig.Phases);
	// empty = steady full load.
	Phases []tpcc.LoadPhase
	// Script schedules administrative statements at fixed offsets from
	// workload start — the DBA acting mid-run. Statements run in order
	// on one admin session; any error fails the run.
	Script []ScriptedStmt
}

// ScriptedStmt is one scheduled admin statement: Stmt executes At after
// the measured workload starts.
type ScriptedStmt struct {
	At   time.Duration
	Stmt string
}

// DefaultSpec returns a paper-style 20-minute experiment on F100G3T10
// without a fault.
func DefaultSpec() Spec {
	return Spec{
		Name:        "default",
		Seed:        1,
		Recovery:    mustConfig("F100G3T10"),
		TPCC:        tpcc.DefaultConfig(),
		CacheBlocks: 4096,
		Cost:        engine.DefaultCostModel(),
		Duration:    20 * time.Minute,
		Detection:   2 * time.Second,
	}
}

func mustConfig(name string) RecoveryConfig {
	c, ok := ConfigByName(name)
	if !ok {
		panic("core: unknown config " + name)
	}
	return c
}

// Result carries the measures of one experiment: the performance measure
// of TPC-C plus the paper's new dependability measures.
type Result struct {
	Spec Spec

	// TpmC is the New-Order throughput over the full run.
	TpmC float64
	// Series is New-Order throughput in 30-second buckets.
	Series []int
	// Committed counts all committed transactions; Failures the failed
	// attempts observed by terminals.
	Committed int
	Failures  int

	// Outcome describes the fault and its recovery (nil without fault).
	Outcome *faults.Outcome
	// RecoveryTime is the recovery procedure duration (the paper's
	// Tables 4/5 measure; excludes detection).
	RecoveryTime time.Duration
	// UserOutage is the end-user view: from injection to the first
	// successful transaction after it.
	UserOutage time.Duration

	// Availability is the per-warehouse served-fraction over the fault
	// window [InjectedAt, RecoveredAt) (nil without fault): how much of
	// the offered load the database kept serving while recovering. A
	// localized fault keeps the unaffected warehouses near 1.0; a full
	// outage collapses every column to ~0.
	Availability *metrics.Availability

	// LostTransactions counts acknowledged commits whose effects are
	// missing after the experiment (the paper's lost-transaction
	// measure). In a replicated run this is the failover's RPO in
	// transactions.
	LostTransactions int
	// FailedOver reports that the run's remedy was a stand-by promotion;
	// RTOEstimate is the MMON live estimate captured at the promotion
	// decision (compare against RecoveryTime, the measured RTO), and
	// ReplLagRecords how far the promoted stand-by trailed the primary's
	// flushed redo at the crash (the async RPO bound, in records).
	FailedOver     bool
	RTOEstimate    time.Duration
	ReplLagRecords int64
	// Replication is the final V$REPLICATION view (nil without a
	// streaming cluster); ReplicaServed/ReplicaFallback count stand-by-
	// routed read-only transactions.
	Replication     []monitor.ReplicationRow
	ReplicaServed   int64
	ReplicaFallback int64
	// IntegrityViolations lists failed TPC-C consistency conditions.
	IntegrityViolations []tpcc.Violation

	// Checkpoints is the number of completed checkpoints during the
	// run (Table 3's rightmost column).
	Checkpoints int
	// RedoWritten is the volume of redo generated.
	RedoWritten int64
	// LogStalls is time transactions spent waiting for log-group reuse.
	LogStalls time.Duration

	// Repository is the run's MMON workload repository (nil unless
	// Spec.SampleInterval > 0): the sampled metric time-series, rates
	// and live recovery estimates, ready for export.
	Repository *monitor.Repository

	// Control is the run's self-tuning controller (nil unless
	// Spec.Control was set): its decision history and final rung carry
	// the pareto experiment's tracking report.
	Control *control.Controller

	// Diagnostics for calibration and reports.
	ByType       map[tpcc.TxnType]int
	LockWaits    int64
	LockTimeouts int64
	CacheHitRate float64
	DiskBusy     map[string]time.Duration
}

// String renders a one-line summary.
func (r *Result) String() string {
	s := fmt.Sprintf("%s: tpmC=%.0f ckpts=%d", r.Spec.Name, r.TpmC, r.Checkpoints)
	if r.Outcome != nil {
		s += fmt.Sprintf(" fault=%v recovery=%v outage=%v lost=%d viol=%d",
			r.Outcome.Fault, r.RecoveryTime.Round(time.Second), r.UserOutage.Round(time.Second),
			r.LostTransactions, len(r.IntegrityViolations))
	}
	return s
}

// debugTrace enables phase tracing on stdout (used while calibrating).
var debugTrace = false

// dataDiskNames returns the data disk names for a spec: data1..dataN
// (n = 0 means the paper's two-disk layout, keeping the control file on
// data1 as always).
func dataDiskNames(n int) []string {
	if n < 2 {
		n = 2
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("data%d", i+1)
	}
	return names
}

// diskSpecs builds the platform's disk set: the data disks plus the
// dedicated redo and archive disks.
func diskSpecs(dataDisks []string) []simdisk.DiskSpec {
	specs := make([]simdisk.DiskSpec, 0, len(dataDisks)+2)
	for _, d := range dataDisks {
		specs = append(specs, simdisk.DefaultSpec(d))
	}
	specs = append(specs, simdisk.DefaultSpec(engine.DiskRedo), simdisk.DefaultSpec(engine.DiskArch))
	return specs
}

// Run executes one experiment end to end: build the simulated platform,
// create and load the database, take the reference backup, run TPC-C for
// the configured duration with the optional fault, then collect measures.
//
// Run is safe for concurrent use: every call builds its own sim kernel,
// RNG, disks and engine, and touches no package-level mutable state, so
// campaign runners may execute many Runs in parallel (see pool.go) with
// results identical to sequential execution.
func Run(spec Spec) (*Result, error) {
	k := sim.NewKernel(spec.Seed)
	dataDisks := dataDiskNames(spec.DataDisks)
	fs := simdisk.NewFS(diskSpecs(dataDisks)...)
	ecfg := engine.DefaultConfig()
	ecfg.Redo.GroupSizeBytes = spec.Recovery.FileSize
	ecfg.Redo.Groups = spec.Recovery.Groups
	ecfg.Redo.ArchiveMode = spec.Archive
	ecfg.CheckpointTimeout = spec.Recovery.CheckpointTimeout
	ecfg.CacheBlocks = spec.CacheBlocks
	ecfg.CPUs = spec.CPUs
	ecfg.RecoveryParallelism = spec.RecoveryWorkers
	ecfg.Cost = spec.Cost
	ecfg.Tracer = spec.Tracer
	ecfg.SampleInterval = spec.SampleInterval
	ecfg.RepositoryDepth = spec.RepositoryDepth
	in, err := engine.New(k, fs, ecfg)
	if err != nil {
		return nil, err
	}

	bk := backup.NewManager(k, fs, engine.DiskArch)
	rm := recovery.NewManager(in, bk)
	ex := sqladmin.NewExecutor(in, rm, bk)
	inj := faults.NewInjector(in, rm, ex)
	if spec.Detection > 0 {
		inj.Detection = spec.Detection
	}
	inj.ForcePhysical = spec.ForcePhysical

	app := tpcc.NewApp(in, spec.TPCC)
	dcfg := tpcc.DefaultDriverConfig()
	dcfg.Phases = spec.Phases
	drv := tpcc.NewDriver(app, dcfg)

	res := &Result{Spec: spec}
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
		k.Stop()
	}

	trace := func(msg string) {
		if debugTrace {
			fmt.Printf("[%v] %s\n", k.Now(), msg)
		}
	}
	var sb *standby.Standby
	var cluster *standby.Cluster
	recoveryPoint := redo.SCN(-1) // -1: complete recovery, nothing lost
	k.Go("benchmark", func(p *sim.Proc) {
		// Phase 1: create, load, checkpoint, reference backup.
		if err := in.Open(p); err != nil {
			fail(err)
			return
		}
		if err := app.CreateSchema(p, dataDisks); err != nil {
			fail(err)
			return
		}
		if err := app.Load(p, rand.New(rand.NewSource(spec.Seed))); err != nil {
			fail(err)
			return
		}
		if err := in.Checkpoint(p); err != nil {
			fail(err)
			return
		}
		backupSCN := in.DB().Control.CheckpointSCN
		if _, err := bk.TakeFull(p, in.DB(), in.Catalog(), backupSCN); err != nil {
			fail(err)
			return
		}
		if spec.Archive {
			if err := in.ForceLogSwitch(p); err != nil {
				fail(err)
				return
			}
		}

		// Phase 1b: instantiate the stand-by from the same content.
		if spec.Standby {
			sb, err = buildStandby(p, k, ecfg, spec, backupSCN, "standby")
			if err != nil {
				fail(err)
				return
			}
			if err := sb.Start(p); err != nil {
				fail(err)
				return
			}
			in.Archiver().OnArchived = sb.Ship
		}

		// Phase 1c: the streaming-replication cluster — N stand-bys fed
		// by continuous redo streaming, the commit gate, and failover as
		// the ShutdownAbort remedy.
		if spec.Standbys > 0 {
			n := spec.Standbys + spec.ReplCascade
			sbs := make([]*standby.Standby, n)
			for i := range sbs {
				sbs[i], err = buildStandby(p, k, ecfg, spec, backupSCN, fmt.Sprintf("standby%d", i+1))
				if err != nil {
					fail(err)
					return
				}
			}
			link := spec.ReplLink
			if link == (sim.LinkSpec{}) {
				link = LinkLAN
			}
			cluster, err = standby.NewCluster(in, sbs, standby.ClusterConfig{
				Mode:    spec.ReplMode,
				Link:    link,
				Cascade: spec.ReplCascade,
			})
			if err != nil {
				fail(err)
				return
			}
			if err := cluster.Start(p); err != nil {
				fail(err)
				return
			}
			in.Log().OnDurable = cluster.OnDurable
			in.Txns().CommitGate = cluster.CommitGate
			prevState := in.OnStateChange
			in.OnStateChange = func(now sim.Time, st engine.State) {
				if prevState != nil {
					prevState(now, st)
				}
				cluster.OnPrimaryState(now, st)
			}
			inj.Failover = cluster
			cluster.RegisterProbes(in.Monitor())
			if spec.ReplicaReads > 0 {
				app.Replica = ReplicaOf(cluster.Standbys()[0])
				app.ReplicaShare = spec.ReplicaReads
			}
		}

		trace("setup done")
		// Phase 2: measured run.
		if spec.Control != nil {
			ctl, err := control.New(in, *spec.Control)
			if err != nil {
				fail(err)
				return
			}
			ctl.Start()
			res.Control = ctl
		}
		start := p.Now()
		ckptBase := in.Stats().Checkpoints
		drv.Start()
		if len(spec.Script) > 0 {
			script := spec.Script
			k.Go("DBA-script", func(sp *sim.Proc) {
				for _, s := range script {
					if at := start.Add(s.At); at > sp.Now() {
						sp.Sleep(at.Sub(sp.Now()))
					}
					if _, err := ex.Execute(sp, s.Stmt); err != nil {
						fail(fmt.Errorf("core: script %q: %w", s.Stmt, err))
						return
					}
				}
			})
		}

		if spec.Fault != nil {
			p.Sleep(spec.InjectAt)
			trace("injecting")
			o, err := inj.Inject(p, *spec.Fault)
			if err != nil {
				fail(err)
				return
			}
			res.Outcome = o
			if spec.Standby && *spec.Fault == (faults.Fault{Kind: faults.ShutdownAbort}) {
				// Fail over to the stand-by instead of recovering
				// the primary.
				p.Sleep(inj.Detection)
				o.DetectedAt = p.Now()
				if _, err := sb.Activate(p); err != nil {
					fail(err)
					return
				}
				recoveryPoint = sb.AppliedSCN()
				app.In = sb.Instance()
				o.RecoveredAt = p.Now()
			} else {
				if err := inj.Recover(p, o); err != nil {
					fail(err)
					return
				}
				switch {
				case o.FailedOver:
					// The cluster promoted a stand-by: the new
					// incarnation starts at the promoted watermark,
					// acknowledged commits beyond it are the RPO, and
					// the drivers re-target the new primary.
					recoveryPoint = cluster.PromotedSCN()
					app.In = cluster.ActiveInstance()
					app.Replica = nil
					res.FailedOver = true
					res.RTOEstimate = cluster.LastRTOEstimate()
					res.ReplLagRecords = cluster.PromotedLag()
				case o.Report != nil && !o.Report.Complete:
					recoveryPoint = o.PreFaultSCN
				}
			}
			res.RecoveryTime = o.RecoveryDuration()
		}

		trace("tail")
		rest := spec.Duration - p.Now().Sub(start)
		if spec.Fault != nil && spec.TailAfterRecovery > 0 && rest > spec.TailAfterRecovery {
			rest = spec.TailAfterRecovery
		}
		if rest > 0 {
			p.Sleep(rest)
		}
		trace("quiesce")
		drv.Quiesce(p)
		trace("quiesced")
		end := p.Now()
		if full := start.Add(spec.Duration); end > full {
			end = full
		}

		// Phase 3: measures.
		res.TpmC = drv.TpmC(start, end)
		res.Series = drv.ThroughputSeries(start, end, 30*time.Second)
		res.Committed = drv.CountCommitted(0)
		res.Failures = len(drv.Failures())
		res.Checkpoints = in.Stats().Checkpoints - ckptBase
		res.RedoWritten = in.Log().Stats().FlushedBytes
		res.LogStalls = in.Log().Stats().StallTime
		res.Repository = in.Monitor()
		res.ByType = make(map[tpcc.TxnType]int)
		for _, c := range drv.Commits() {
			res.ByType[c.Type]++
		}
		ts := in.Txns().Stats()
		res.LockWaits, res.LockTimeouts = ts.LockWaits, ts.LockTimeouts
		cs := in.Cache().Stats()
		if cs.Hits+cs.Misses > 0 {
			res.CacheHitRate = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
		}
		res.DiskBusy = make(map[string]time.Duration)
		for _, d := range fs.DiskNames() {
			res.DiskBusy[d] = fs.Disk(d).BusyTotal()
		}
		if res.Outcome != nil {
			if back, ok := drv.FirstCommitAfter(res.Outcome.InjectedAt); ok {
				res.UserOutage = back.Sub(res.Outcome.InjectedAt)
			} else {
				res.UserOutage = end.Sub(res.Outcome.InjectedAt)
			}
			availEnd := res.Outcome.RecoveredAt
			if availEnd <= res.Outcome.InjectedAt {
				availEnd = end
			}
			res.Availability = drv.Availability(res.Outcome.InjectedAt, availEnd)
		}
		// Lost transactions from the end-user view: with an incomplete
		// recovery point, count acknowledged commits beyond it (row
		// probing is defeated by order-id reuse after the rollback);
		// otherwise probe every acknowledged order row.
		if recoveryPoint >= 0 {
			// Only commits acknowledged before the recovery started
			// can be lost; later SCNs belong to the new incarnation.
			for _, c := range drv.Commits() {
				if c.SCN > recoveryPoint && c.At <= res.Outcome.DetectedAt {
					res.LostTransactions++
				}
			}
			// The recovery report counts lost commits from the redo
			// stream itself (including the instants between detection
			// and shutdown); take the authoritative larger figure.
			if rep := res.Outcome.Report; rep != nil && rep.LostCommits > res.LostTransactions {
				res.LostTransactions = rep.LostCommits
			}
		} else {
			lost, err := drv.VerifyDurability(p)
			if err != nil {
				fail(fmt.Errorf("core: durability check: %w", err))
				return
			}
			res.LostTransactions = len(lost)
		}
		if cluster != nil {
			res.Replication = cluster.VReplication()
			res.ReplicaServed = app.ReplicaServed
			res.ReplicaFallback = app.ReplicaFallback
		}
		viols, err := app.CheckConsistency(p)
		if err != nil {
			fail(fmt.Errorf("core: consistency check: %w", err))
			return
		}
		res.IntegrityViolations = viols
		k.Stop()
	})
	// Finish tears the simulation down completely: blocked background
	// processes (LGWR waiting for work, PMON sleeping, stand-by MRP, ...)
	// would otherwise leak their coroutines and keep the whole run's state
	// reachable — across a campaign of dozens of runs that is an OOM. A
	// process panic becomes this run's error instead of killing the
	// campaign.
	if err := k.Finish(sim.Time(200 * time.Hour)); err != nil {
		return nil, fmt.Errorf("core: run %q: %w", spec.Name, err)
	}
	if runErr != nil {
		return nil, fmt.Errorf("core: run %q: %w", spec.Name, runErr)
	}
	if spec.OnRepository != nil && res.Repository != nil {
		spec.OnRepository(res.Repository)
	}
	return res, nil
}

// buildStandby creates one stand-by server: its own simulated machine
// with an identical schema and data content (the standard "instantiate
// from a backup of the primary" procedure, reproduced by re-running the
// deterministic load), left mounted in managed recovery from startSCN.
func buildStandby(p *sim.Proc, k *sim.Kernel, ecfg engine.Config, spec Spec, startSCN redo.SCN, name string) (*standby.Standby, error) {
	dataDisks := dataDiskNames(spec.DataDisks)
	sbFS := simdisk.NewFS(diskSpecs(dataDisks)...)
	sbCfg := ecfg
	sbCfg.Name = name
	// The stand-by shares the primary's kernel but is a second database:
	// its events would interleave with the primary's on the same tracks,
	// so only the primary is traced.
	sbCfg.Tracer = nil
	sbIn, err := engine.New(k, sbFS, sbCfg)
	if err != nil {
		return nil, fmt.Errorf("core: standby: %w", err)
	}
	sbApp := tpcc.NewApp(sbIn, spec.TPCC)
	if err := sbApp.CreateSchema(p, dataDisks); err != nil {
		return nil, fmt.Errorf("core: standby schema: %w", err)
	}
	if err := sbApp.Load(p, rand.New(rand.NewSource(spec.Seed))); err != nil {
		return nil, fmt.Errorf("core: standby load: %w", err)
	}
	return standby.New(sbIn, standby.DefaultConfig(), startSCN), nil
}
