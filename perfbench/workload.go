package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dbench/internal/backup"
	"dbench/internal/core"
	"dbench/internal/engine"
	"dbench/internal/faults"
	"dbench/internal/monitor"
	"dbench/internal/recovery"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/sqladmin"
	"dbench/internal/standby"
	"dbench/internal/tpcc"
)

// workload is one benchmark input: a simulated platform, its set-up, and
// the measured phase run on it. Every field is fixed per workload; only
// the seed varies between runs.
type workload struct {
	name string
	// redo configuration (the paper's F<size>G<groups>T<timeout>)
	logMB, logGroups int
	ckptTimeout      time.Duration
	archive          bool
	tpcc             tpcc.Config
	cacheBlocks      int

	// history is TPC-C run during set-up, then quiesced (faultload).
	history time.Duration
	// run is the measured TPC-C time; with a fault, the time before it.
	run time.Duration
	// faults are injected and remedied in order in the measured phase.
	faults []faultStep
	// tail is the TPC-C time after the last remedy (failover).
	tail time.Duration

	// standbys streams redo to that many first-tier stand-bys in sync
	// mode over the LAN link, serving replicaReads of the read-only
	// transactions from the first one.
	standbys     int
	replicaReads float64
}

// faultStep is one injection with the remedy it must get.
type faultStep struct {
	fault faults.Fault
	// span names the host span around the remedy.
	span string
	// kind is the recovery report kind the remedy must produce.
	kind recovery.Kind
	// complete is whether the remedy must be complete recovery.
	complete bool
}

// quickTPCC is TPC-C at the quick scale of core.QuickScale: 150
// customers per district and 2500 items, 10 terminals per warehouse and
// no think time (a closed loop).
func quickTPCC(warehouses int) tpcc.Config {
	c := tpcc.DefaultConfig()
	c.Warehouses = warehouses
	c.CustomersPerDistrict = 150
	c.Items = 2500
	return c
}

// workloads are the benchmark's inputs, by name.
var workloads = map[string]workload{
	// Fault-free TPC-C whose data fits the buffer cache: the transaction
	// path (sim, txn, tpcc, redo) dominates.
	"oltp": {
		name: "oltp", logMB: 100, logGroups: 3, ckptTimeout: 10 * time.Minute,
		tpcc: quickTPCC(1), cacheBlocks: 2048,
		run: time.Minute,
	},
	// The same TPC-C with four times the data and a quarter of the
	// cache: misses, write-back and the data-disk queues dominate.
	"spill": {
		name: "spill", logMB: 100, logGroups: 3, ckptTimeout: 10 * time.Minute,
		tpcc: quickTPCC(4), cacheBlocks: 512,
		run: 3 * time.Minute,
	},
	// The paper's remedies on one prepared database: recovery apply,
	// backup restore and archive scan; no transaction runs.
	"faultload": {
		name: "faultload", logMB: 400, logGroups: 3, ckptTimeout: 20 * time.Minute,
		archive: true, tpcc: quickTPCC(1), cacheBlocks: 2048,
		history: 2 * time.Minute,
		faults: []faultStep{
			{faults.Fault{Kind: faults.ShutdownAbort}, "recovery.instance_s", recovery.KindInstance, true},
			{faults.Fault{Kind: faults.DeleteDatafile, Target: "TPCC_01.dbf"}, "recovery.media_s", recovery.KindTablespace, true},
			{faults.Fault{Kind: faults.TruncateTable, Target: tpcc.TableStock}, "recovery.flashback_s", recovery.KindFlashback, true},
			// Last: point-in-time recovery is incomplete.
			{faults.Fault{Kind: faults.DeleteTablespace, Target: "TPCC"}, "recovery.pit_s", recovery.KindPointInTime, false},
		},
	},
	// One -exp replica cell: sync streaming to two stand-bys, half the
	// read-only traffic on a replica, a late crash remedied by promotion.
	"failover": {
		name: "failover", logMB: 100, logGroups: 3, ckptTimeout: 10 * time.Minute,
		tpcc: quickTPCC(1), cacheBlocks: 2048,
		run:  60 * time.Second,
		tail: 20 * time.Second,
		faults: []faultStep{
			{faults.Fault{Kind: faults.ShutdownAbort}, "standby.promote_s", recovery.KindFailover, true},
		},
		standbys: 2, replicaReads: 0.5,
	},
}

// workloadNames lists the workloads in a fixed order.
var workloadNames = []string{"oltp", "spill", "faultload", "failover"}

// repResult is what one repetition (set-up plus measured phase) yields.
type repResult struct {
	setup, measure time.Duration // host time
	allocs, bytes  uint64        // heap allocation during the measured phase
	gcCycles       uint64
	attempted      int // ops attempted: TPC-C attempts or remedies
	failedOps      int // TPC-C attempts refused, or remedies that errored
	ops            int // committed transactions, or applied redo records
	// sim holds every simulated output and counter. A host-only change
	// must leave it identical; so must a rerun with the same seed.
	sim map[string]float64
	// failures lists the output checks that failed.
	failures []string
	// repl is the final V$REPLICATION view (nil without stand-bys).
	repl []monitor.ReplicationRow
}

// fail records a failed output check.
func (r *repResult) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// dataDisks is the paper's two-data-disk layout.
var dataDisks = []string{"data1", "data2"}

func diskSpecs() []simdisk.DiskSpec {
	var specs []simdisk.DiskSpec
	for _, d := range append(dataDisks, engine.DiskRedo, engine.DiskArch) {
		specs = append(specs, simdisk.DefaultSpec(d))
	}
	return specs
}

// engineConfig is the instance configuration, as core.Run derives it.
func (w workload) engineConfig() engine.Config {
	c := engine.DefaultConfig()
	c.Redo.GroupSizeBytes = int64(w.logMB) << 20
	c.Redo.Groups = w.logGroups
	c.Redo.ArchiveMode = w.archive
	c.CheckpointTimeout = w.ckptTimeout
	c.CacheBlocks = w.cacheBlocks
	c.Cost = engine.DefaultCostModel()
	return c
}

// runRep builds a fresh platform and runs the workload once on it, in
// the phase order of core.Run. sp records host spans around each call
// into a layer (nil: no spans); prof, when set, brackets the measured
// phase (the traced run's CPU profile).
func runRep(w workload, seed int64, sp *spans, prof func(start bool)) (*repResult, error) {
	res := &repResult{sim: map[string]float64{}}
	setupStart := time.Now()
	root := sp.begin("rep " + w.name)
	setupSpan := sp.begin("setup")

	k := sim.NewKernel(seed)
	fs := simdisk.NewFS(diskSpecs()...)
	ecfg := w.engineConfig()
	var in *engine.Instance
	err := sp.do("engine.new", func() (err error) {
		in, err = engine.New(k, fs, ecfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	bk := backup.NewManager(k, fs, engine.DiskArch)
	rm := recovery.NewManager(in, bk)
	inj := faults.NewInjector(in, rm, sqladmin.NewExecutor(in, rm, bk))
	inj.Detection = 2 * time.Second
	app := tpcc.NewApp(in, w.tpcc)
	drv := tpcc.NewDriver(app, tpcc.DefaultDriverConfig())

	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
		k.Stop()
	}
	var cluster *standby.Cluster
	k.Go("benchmark", func(p *sim.Proc) {
		if err := sp.do("engine.open", func() error { return in.Open(p) }); err != nil {
			fail(err)
			return
		}
		if err := sp.do("tpcc.create_schema", func() error { return app.CreateSchema(p, dataDisks) }); err != nil {
			fail(err)
			return
		}
		if err := sp.do("tpcc.load_s", func() error { return app.Load(p, rand.New(rand.NewSource(seed))) }); err != nil {
			fail(err)
			return
		}
		if err := sp.do("engine.checkpoint_s", func() error { return in.Checkpoint(p) }); err != nil {
			fail(err)
			return
		}
		backupSCN := in.DB().Control.CheckpointSCN
		if err := sp.do("backup.take_full_s", func() error {
			_, err := bk.TakeFull(p, in.DB(), in.Catalog(), backupSCN)
			return err
		}); err != nil {
			fail(err)
			return
		}
		if w.archive {
			if err := sp.do("redo.log_switch", func() error { return in.ForceLogSwitch(p) }); err != nil {
				fail(err)
				return
			}
		}
		if w.standbys > 0 {
			err := sp.do("standby.instantiate_s", func() (err error) {
				cluster, err = startCluster(p, k, in, ecfg, w, seed, backupSCN)
				return err
			})
			if err != nil {
				fail(err)
				return
			}
			inj.Failover = cluster
			if w.replicaReads > 0 {
				app.Replica = core.ReplicaOf(cluster.Standbys()[0])
				app.ReplicaShare = w.replicaReads
			}
		}
		if w.history > 0 {
			err := sp.do("tpcc.history", func() error {
				drv.Start()
				p.Sleep(w.history)
				drv.Quiesce(p)
				return nil
			})
			if err != nil {
				fail(err)
				return
			}
		}
		res.setup = time.Since(setupStart)
		sp.end(setupSpan)

		// Measured phase, on a collected heap so set-up garbage is not
		// charged to it.
		runtime.GC()
		before := snapshot(in, drv, cluster)
		host := readHost()
		if prof != nil {
			prof(true)
		}
		measureSpan := sp.begin("measure")
		start, measureStart := p.Now(), time.Now()
		ckptBase := in.Stats().Checkpoints
		var reports []*recovery.Report
		var outcome *faults.Outcome
		if w.run > 0 {
			drv.Start()
			sp.do("tpcc.run_s", func() error { p.Sleep(w.run); return nil })
		}
		for _, f := range w.faults {
			var o *faults.Outcome
			err := sp.do("faults.inject_s", func() (err error) {
				o, err = inj.Inject(p, f.fault)
				return err
			})
			if err == nil {
				err = sp.do(f.span, func() error { return inj.Recover(p, o) })
			}
			res.attempted++
			if err != nil {
				res.failedOps++
				res.fail("%v: %v", f.fault, err)
				continue
			}
			if o.Report == nil || o.Report.Kind != f.kind || o.Report.Complete != f.complete {
				res.fail("%v: want a %v remedy (complete=%v), got %+v", f.fault, f.kind, f.complete, o.Report)
			}
			if o.Report != nil {
				reports = append(reports, o.Report)
			}
			res.sim["sim_recovery_s"] += o.RecoveryDuration().Seconds()
			outcome = o
		}
		if cluster != nil && outcome != nil {
			// The drivers re-target the promoted primary.
			if !outcome.FailedOver {
				res.fail("%v was not remedied by promotion", outcome.Fault)
			}
			app.In = cluster.ActiveInstance()
			app.Replica = nil
		}
		if w.tail > 0 {
			sp.do("tpcc.tail", func() error { p.Sleep(w.tail); return nil })
		}
		if w.run > 0 {
			sp.do("tpcc.quiesce_s", func() error { drv.Quiesce(p); return nil })
		}
		res.measure = time.Since(measureStart)
		sp.end(measureSpan)
		if prof != nil {
			prof(false)
		}
		res.allocs, res.bytes, res.gcCycles = readHost().since(host)
		end := p.Now()
		if full := start.Add(w.run + w.tail); w.run > 0 && end > full && outcome == nil {
			end = full
		}

		// Simulated outputs, read in core.Run's order.
		if w.run > 0 {
			res.sim["sim_tpmC"] = drv.TpmC(start, end)
		}
		res.sim["committed"] = float64(drv.CountCommitted(0))
		res.sim["checkpoints"] = float64(in.Stats().Checkpoints - ckptBase)
		res.sim["redo_bytes"] = float64(in.Log().Stats().FlushedBytes)
		res.sim["measured_vs"] = end.Sub(start).Seconds()
		after := snapshot(in, drv, cluster)
		counters(res.sim, before, after, reports, cluster, app, end.Sub(start))

		if w.run > 0 {
			res.ops = int(after.committedTxns - before.committedTxns)
			res.attempted += int(after.offered - before.offered)
			res.failedOps += int(after.refused - before.refused)
		} else {
			res.ops = int(res.sim["recovery.records_applied"])
		}
		res.sim["error_rate"] = float64(res.failedOps) / float64(res.attempted)

		// Output checks. Every remedy here is complete (the point-in-time
		// recovery stops before the quiesced history's last commit), so
		// no acknowledged commit may be lost.
		lost := 0
		if cluster != nil && outcome != nil && outcome.FailedOver {
			// As core.Run counts the failover's loss: acknowledged
			// commits beyond the promoted watermark, against the ledger.
			res.sim["promoted_scn"] = float64(cluster.PromotedSCN())
			for _, c := range drv.Commits() {
				if c.SCN > cluster.PromotedSCN() && c.At <= outcome.DetectedAt {
					lost++
				}
			}
			lost = max(lost, outcome.Report.LostCommits)
			res.sim["lost"] = float64(lost)
			res.repl = cluster.VReplication()
		}
		var missing []tpcc.CommitRecord
		err := sp.do("tpcc.durability_s", func() (err error) {
			missing, err = drv.VerifyDurability(p)
			return err
		})
		if err != nil {
			fail(fmt.Errorf("durability check: %w", err))
			return
		}
		if cluster == nil {
			lost = len(missing)
			res.sim["lost"] = float64(lost)
		}
		if lost > 0 || len(missing) > 0 {
			res.fail("acknowledged commits lost: %d by the ledger, %d order rows missing", lost, len(missing))
		}
		var viols []tpcc.Violation
		err = sp.do("tpcc.consistency_s", func() (err error) {
			viols, err = app.CheckConsistency(p)
			return err
		})
		if err != nil {
			fail(fmt.Errorf("consistency check: %w", err))
			return
		}
		res.sim["violations"] = float64(len(viols))
		for _, v := range viols {
			res.fail("consistency: %v", v)
		}
		k.Stop()
	})
	k.Run(sim.Time(200 * time.Hour))
	k.KillAll()
	sp.end(root)
	if runErr != nil {
		return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, runErr)
	}
	return res, nil
}

// startCluster instantiates the stand-bys from the same content as the
// primary (re-running the deterministic load, as core.Run does) and
// wires the streaming cluster: commit gate, durable-redo tap, primary
// state hook.
func startCluster(p *sim.Proc, k *sim.Kernel, in *engine.Instance, ecfg engine.Config, w workload, seed int64, startSCN redo.SCN) (*standby.Cluster, error) {
	sbs := make([]*standby.Standby, w.standbys)
	for i := range sbs {
		cfg := ecfg
		cfg.Name = fmt.Sprintf("standby%d", i+1)
		sbIn, err := engine.New(k, simdisk.NewFS(diskSpecs()...), cfg)
		if err != nil {
			return nil, err
		}
		sbApp := tpcc.NewApp(sbIn, w.tpcc)
		if err := sbApp.CreateSchema(p, dataDisks); err != nil {
			return nil, err
		}
		if err := sbApp.Load(p, rand.New(rand.NewSource(seed))); err != nil {
			return nil, err
		}
		sbs[i] = standby.New(sbIn, standby.DefaultConfig(), startSCN)
	}
	cluster, err := standby.NewCluster(in, sbs, standby.ClusterConfig{Mode: standby.ModeSync, Link: core.LinkLAN})
	if err != nil {
		return nil, err
	}
	if err := cluster.Start(p); err != nil {
		return nil, err
	}
	in.Log().OnDurable = cluster.OnDurable
	in.Txns().CommitGate = cluster.CommitGate
	in.OnStateChange = cluster.OnPrimaryState
	cluster.RegisterProbes(in.Monitor())
	return cluster, nil
}
